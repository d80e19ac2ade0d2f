package sqlang

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"genalg/internal/db"
)

// countUnpacks wraps the engine's dna UDT so every Unpack increments the
// returned counter.
func countUnpacks(t *testing.T, e *Engine) *atomic.Int64 {
	t.Helper()
	udt, ok := e.DB.UDTs.Get("dna")
	if !ok {
		t.Fatal("no dna UDT")
	}
	n := new(atomic.Int64)
	inner := udt.Unpack
	udt.Unpack = func(buf []byte) (any, error) {
		n.Add(1)
		return inner(buf)
	}
	if err := e.DB.UDTs.Register(udt); err != nil {
		t.Fatal(err)
	}
	return n
}

// narrowFixture loads t (with an opaque dna column) and u, which joins t
// on tid, plus an empty table.
func narrowFixture(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE t (id string, a int, b int, d dna)`)
	mustExec(t, e, `CREATE INDEX ON t (id)`)
	mustExec(t, e, `CREATE TABLE u (tid string, w float, note string)`)
	mustExec(t, e, `CREATE TABLE empty (x int, y string)`)
	var tv, uv []string
	for i := 0; i < 40; i++ {
		tv = append(tv, fmt.Sprintf("('k%d', %d, %d, dna('k%d', '%s'))", i, i%5, (i*7)%6, i, strings.Repeat("ACGT"[i%4:i%4+1]+"GC", 3+i%4)))
		if i%3 != 0 {
			uv = append(uv, fmt.Sprintf("('k%d', %d.5, 'n%d')", i, i%4, i%2))
		}
	}
	tv = append(tv, "('knull', NULL, 2, dna('knull', 'GATTACA'))")
	mustExec(t, e, `INSERT INTO t VALUES `+strings.Join(tv, ", "))
	mustExec(t, e, `INSERT INTO u VALUES `+strings.Join(uv, ", "))
}

// TestNarrowDecodesOnlyReadColumns counts dna unpacks: a statement that
// never names the opaque column unpacks none, SELECT * unpacks once per
// row, and a filter on the column unpacks once per scanned row.
func TestNarrowDecodesOnlyReadColumns(t *testing.T) {
	e := testEngine(t)
	narrowFixture(t, e)
	n := countUnpacks(t, e)
	for _, c := range []struct {
		sql     string
		rows    int
		unpacks int64
	}{
		{`SELECT id FROM t WHERE id = 'k3'`, 1, 0},
		{`SELECT a, b FROM t WHERE id = 'k3'`, 1, 0},
		{`SELECT t.id, u.note FROM t JOIN u ON t.id = u.tid`, 26, 0},
		{`SELECT COUNT(*) FROM t JOIN u ON t.id = u.tid WHERE t.a > 1`, 1, 0},
		{`SELECT * FROM t`, 41, 41},
		{`SELECT * FROM t WHERE id = 'k3'`, 1, 1},
		{`SELECT id FROM t WHERE seqlength(d) > 12`, 20, 41},
	} {
		n.Store(0)
		r := mustExec(t, e, c.sql)
		if len(r.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.sql, len(r.Rows), c.rows)
		}
		if got := n.Load(); got != c.unpacks {
			t.Errorf("%s: %d unpacks, want %d", c.sql, got, c.unpacks)
		}
	}
}

// widen returns sql with an always-true conjunct naming every column of
// every table the statement reads (aliases are the FROM/JOIN effective
// names), so the statement runs unnarrowed: every column of every row is
// decoded.
func widen(t *testing.T, e *Engine, sql string, aliases map[string]string) string {
	t.Helper()
	var conj []string
	for alias, table := range aliases {
		tbl, ok := e.DB.Table(table)
		if !ok {
			t.Fatalf("no table %s", table)
		}
		for _, c := range tbl.Schema().Columns {
			conj = append(conj, fmt.Sprintf("(%s.%s IS NULL OR %s.%s IS NOT NULL)", alias, c.Name, alias, c.Name))
		}
	}
	taut := strings.Join(conj, " AND ")
	for _, kw := range []string{" GROUP BY ", " ORDER BY ", " LIMIT "} {
		if i := strings.Index(sql, kw); i >= 0 {
			return widenWhere(sql[:i], taut) + sql[i:]
		}
	}
	return widenWhere(sql, taut)
}

func widenWhere(sql, taut string) string {
	if strings.Contains(sql, " WHERE ") {
		return strings.Replace(sql, " WHERE ", " WHERE "+taut+" AND ", 1)
	}
	return sql + " WHERE " + taut
}

// canon renders rows order-insensitively: the planner may order a widened
// statement's joins differently, and ties under ORDER BY then come out in
// another order.
func canon(rows []db.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestNarrowMatchesUnnarrowed runs statements that read a few columns
// against their widened twins (every column decoded) on every executor
// configuration, and checks that both give the same rows.
func TestNarrowMatchesUnnarrowed(t *testing.T) {
	configs := map[string]func(*Engine){
		"cbo":      func(*Engine) {},
		"row":      func(e *Engine) { e.BatchSize = 1 },
		"parallel": func(e *Engine) { e.Workers, e.ParallelScanMinRows = 3, 1 },
	}
	cases := []struct {
		sql     string
		aliases map[string]string
		ordered bool // ORDER BY fixes the row order exactly
	}{
		// ORDER BY a column the projection does not name.
		{`SELECT id FROM t ORDER BY b, id`, map[string]string{"t": "t"}, true},
		{`SELECT id FROM t WHERE a > 1 ORDER BY seqlength(d) DESC, id`, map[string]string{"t": "t"}, true},
		// GROUP BY and HAVING on columns the projection does not name.
		{`SELECT COUNT(*) FROM t GROUP BY b HAVING MIN(a) >= 0 AND MAX(a) > 2`, map[string]string{"t": "t"}, false},
		{`SELECT MAX(id) FROM t GROUP BY a HAVING SUM(b) > 10`, map[string]string{"t": "t"}, false},
		// COUNT(*) over slots whose columns are all unread.
		{`SELECT COUNT(*) FROM t`, map[string]string{"t": "t"}, true},
		{`SELECT COUNT(*) FROM t, u`, map[string]string{"t": "t", "u": "u"}, true},
		{`SELECT COUNT(*) FROM t JOIN u ON t.id = u.tid`, map[string]string{"t": "t", "u": "u"}, true},
		{`SELECT u.note, COUNT(*) FROM t, u WHERE t.a = 2 GROUP BY u.note`, map[string]string{"t": "t", "u": "u"}, false},
		// A self-join under aliases: each alias gets its own column map.
		{`SELECT x.id, y.b FROM t x JOIN t y ON x.a = y.b WHERE x.b = 1 ORDER BY x.id, y.id`, map[string]string{"x": "t", "y": "t"}, true},
		{`SELECT x.id, y.id FROM t x JOIN t y ON x.id = y.id WHERE seqlength(y.d) > 14 ORDER BY x.id`, map[string]string{"x": "t", "y": "t"}, true},
		// Three slots, join keys only partly projected, a float column.
		{`SELECT t.id, u.w FROM t JOIN u ON t.id = u.tid JOIN t z ON z.a = t.b WHERE u.w > 1 ORDER BY t.id, z.id`, map[string]string{"t": "t", "u": "u", "z": "t"}, true},
		// The rid path and DISTINCT.
		{`SELECT b FROM t WHERE id = 'k7'`, map[string]string{"t": "t"}, true},
		{`SELECT DISTINCT a FROM t WHERE b > 2`, map[string]string{"t": "t"}, false},
		{`SELECT id, b * 10 + 1 FROM t WHERE a IS NULL`, map[string]string{"t": "t"}, true},
	}
	for name, cfg := range configs {
		e := testEngine(t)
		cfg(e)
		narrowFixture(t, e)
		for _, c := range cases {
			got := mustExec(t, e, c.sql)
			wide := widen(t, e, c.sql, c.aliases)
			want := mustExec(t, e, wide)
			if len(want.Rows) == 0 {
				t.Fatalf("%s: %s returns no rows; the case checks nothing", name, wide)
			}
			same := reflect.DeepEqual(canon(got.Rows), canon(want.Rows))
			if c.ordered {
				same = reflect.DeepEqual(got.Rows, want.Rows)
			}
			if !same || !reflect.DeepEqual(got.Cols, want.Cols) {
				t.Errorf("%s: %s\n got %v %v\nunnarrowed %v %v", name, c.sql, got.Cols, got.Rows, want.Cols, want.Rows)
			}
		}
		// An unknown column over an empty input stays a non-error, also
		// where it is the only column named.
		for _, sql := range []string{
			`SELECT nosuch FROM empty`,
			`SELECT COUNT(*) FROM empty WHERE nosuch = 1`,
			`SELECT empty.x FROM empty JOIN t ON empty.nosuch = t.a`,
		} {
			if _, err := e.Exec(sql); err != nil {
				t.Errorf("%s: %s on an empty table: %v", name, sql, err)
			}
		}
	}
}
