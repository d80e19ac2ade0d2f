package regress

import (
	"math"
	"strings"
	"testing"

	"genalg/internal/db"
	"genalg/internal/sqlang"
)

// TestBaselinesClean is the CI gate: the committed corpus must render
// byte-identically to the committed baselines. If this fails after an
// intended planner/executor change, re-bless with `sqlregress update`
// and review the golden-file diff.
func TestBaselinesClean(t *testing.T) {
	h := &Harness{CorpusDir: "testdata/corpus", BaselineDir: "testdata/baselines"}
	diffs, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("baseline diff:\n%s", d)
	}
}

// TestPerturbedCostConstantFlagsPlanDiff proves the harness actually
// guards the planner: inflating the index-descent cost flips access
// paths (index eq → scan), and the check must flag that as a plan diff
// even though every result set is unchanged.
func TestPerturbedCostConstantFlagsPlanDiff(t *testing.T) {
	h := &Harness{
		CorpusDir:   "testdata/corpus",
		BaselineDir: "testdata/baselines",
		Perturb:     func(e *sqlang.Engine) { e.CostIndexSeek = 400 },
	}
	diffs, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("perturbed cost constant produced no baseline diffs; plan snapshots are not guarding the planner")
	}
	flipped := false
	for _, d := range diffs {
		if d.Kind != "changed" {
			t.Errorf("unexpected diff kind %q for %s:%s", d.Kind, d.File, d.Label)
		}
		if strings.Contains(d.Old, "access: index eq") && !strings.Contains(d.New, "access: index eq") {
			flipped = true
		}
	}
	if !flipped {
		t.Error("expected at least one access path to flip from index eq to scan")
	}
}

// TestGeneratorDeterministic: same database state + same seed = same
// statement stream, byte for byte; a different seed diverges.
func TestGeneratorDeterministic(t *testing.T) {
	mk := func(seed int64) []string {
		d, _, err := NewFuzzEnv()
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		g, err := NewGenerator(d, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 120)
		for i := range out {
			out[i] = g.Next()
		}
		return out
	}
	a, b, c := mk(42), mk(42), mk(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("statement %d differs between same-seed runs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed 42 and 43 produced identical streams")
	}
}

// TestFuzzNoFalsePositives: on an unbroken engine the executor matrix
// must agree on every generated statement.
func TestFuzzNoFalsePositives(t *testing.T) {
	d, runners, err := NewFuzzEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := Fuzz(d, runners, FuzzOptions{Seed: 3, N: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range res.Divergences {
		t.Errorf("false positive divergence:\n%s", fd.Divergence.String())
	}
	if res.Statements != 200 {
		t.Errorf("expected 200 statements, ran %d", res.Statements)
	}
	// The non-reference runners execute through the plan cache; a run
	// that never reused a plan never compared a warm one.
	if res.PlanCacheHits == 0 {
		t.Error("no statement ran on a cached plan: the warm path went unexercised")
	}
	t.Logf("seed 3: %d plan-cache hits over %d statements", res.PlanCacheHits, res.Statements)
}

// TestInjectedJoinKeyDivergence seeds a real executor bug (hash-join
// key unification disabled on the reference engine) and requires the
// fuzzer to catch it, shrink it, and emit a corpus-ready reproducer.
func TestInjectedJoinKeyDivergence(t *testing.T) {
	d, runners, err := NewFuzzEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runners[0].Eng.UnsafeBreakJoinKeys = true
	out := t.TempDir()
	res, err := Fuzz(d, runners, FuzzOptions{Seed: 1, N: 500, Out: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) == 0 {
		t.Fatal("injected join-key fault was not caught within 500 statements")
	}
	fd := res.Divergences[0]
	if len(fd.Minimal) > len(fd.SQL) {
		t.Errorf("shrunk statement is larger than the original:\n  orig: %s\n  min:  %s", fd.SQL, fd.Minimal)
	}
	stmt, err := sqlang.Parse(fd.Minimal)
	if err != nil {
		t.Fatalf("minimal reproducer does not parse: %q: %v", fd.Minimal, err)
	}
	if _, ok := stmt.(*sqlang.SelectStmt); !ok {
		t.Fatalf("minimal reproducer is not a SELECT: %q", fd.Minimal)
	}
	if div, _ := RunDifferential(runners, fd.Minimal); div == nil {
		t.Fatalf("minimal reproducer no longer diverges: %q", fd.Minimal)
	}
	// The emitted file must be corpus-ready: loadable, carrying the
	// standard fixture directive and exactly the minimal statement.
	corpus, err := LoadCorpus(out)
	if err != nil {
		t.Fatalf("reproducer directory is not a loadable corpus: %v", err)
	}
	if len(corpus) != 1 || corpus[0].Fixture != "standard" || len(corpus[0].Stmts) != 1 {
		t.Fatalf("reproducer is not corpus-ready: %+v", corpus)
	}
	if corpus[0].Stmts[0] != fd.Minimal {
		t.Errorf("reproducer statement mismatch:\n  file:   %s\n  minimal: %s", corpus[0].Stmts[0], fd.Minimal)
	}
}

func TestSplitStatements(t *testing.T) {
	in := `-- header comment
SELECT a FROM t; -- trailing
SELECT 'quoted;semi' FROM t;
SELECT '-- not a comment', 'it''s' FROM u
;
`
	got := SplitStatements(in)
	want := []string{
		"SELECT a FROM t",
		"SELECT 'quoted;semi' FROM t",
		"SELECT '-- not a comment', 'it''s' FROM u",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d statements %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("statement %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFormatVal(t *testing.T) {
	cases := []struct {
		v    any
		prec int
		want string
	}{
		{nil, SnapshotPrec, "NULL"},
		{math.NaN(), SnapshotPrec, "NaN"},
		{math.Inf(1), SnapshotPrec, "+Inf"},
		{math.Inf(-1), SnapshotPrec, "-Inf"},
		{math.Copysign(0, -1), SnapshotPrec, "0"},
		{1.0 / 3.0, SnapshotPrec, "0.333333"},
		{1.0 / 3.0, FullPrec, "0.3333333333333333"},
		{int64(42), SnapshotPrec, "42"},
		{"a|b\nc", SnapshotPrec, `a\|b\nc`},
		{true, SnapshotPrec, "true"},
	}
	for _, c := range cases {
		if got := formatVal(c.v, c.prec); got != c.want {
			t.Errorf("formatVal(%v, %d) = %q, want %q", c.v, c.prec, got, c.want)
		}
	}
}

// TestNormalizeRowsSorting: unordered results are order-insensitive
// (multiset semantics), ordered ones are not.
func TestNormalizeRowsSorting(t *testing.T) {
	a := []db.Row{{int64(2), "b"}, {int64(1), "a"}}
	b := []db.Row{{int64(1), "a"}, {int64(2), "b"}}
	au := NormalizeRows(a, false, SnapshotPrec)
	bu := NormalizeRows(b, false, SnapshotPrec)
	for i := range au {
		if au[i] != bu[i] {
			t.Errorf("unordered normalization is order-sensitive: %v vs %v", au, bu)
		}
	}
	ao := NormalizeRows(a, true, SnapshotPrec)
	if ao[0] != "2 | b" {
		t.Errorf("ordered normalization reordered rows: %v", ao)
	}
}

// TestOrphanBaselineFlagged: a baseline whose corpus file is gone must
// be reported.
func TestOrphanBaselineFlagged(t *testing.T) {
	dir := t.TempDir()
	h := &Harness{CorpusDir: "testdata/corpus", BaselineDir: dir}
	if _, err := h.Update(); err != nil {
		t.Fatal(err)
	}
	h2 := &Harness{CorpusDir: dir, BaselineDir: dir} // corpus dir with no .sql
	if _, err := h2.Check(); err == nil {
		t.Error("empty corpus dir should error")
	}
}
