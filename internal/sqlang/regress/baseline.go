package regress

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"genalg/internal/sqlang"
)

// Harness runs the corpus against committed baselines. Zero value +
// the two directories is ready to use.
type Harness struct {
	CorpusDir   string
	BaselineDir string
	// Perturb, when non-nil, is applied to every engine the harness
	// builds. It exists for the harness's own self-tests (e.g. proving a
	// perturbed cost constant is flagged as a plan diff); the CLI never
	// sets it.
	Perturb func(*sqlang.Engine)
}

// Diff is one detected deviation from a baseline.
type Diff struct {
	File  string // corpus file name (stem)
	Label string // statement label within the file, "" for file-level diffs
	Kind  string // "missing baseline", "changed", "missing statement", "extra statement", "orphan baseline"
	Old   string // baseline content ("" when absent)
	New   string // freshly rendered content ("" when absent)
}

func (d Diff) String() string {
	loc := d.File
	if d.Label != "" {
		loc += ":" + d.Label
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", loc, d.Kind)
	if d.Old != "" {
		for _, l := range strings.Split(strings.TrimRight(d.Old, "\n"), "\n") {
			fmt.Fprintf(&sb, "  - %s\n", l)
		}
	}
	if d.New != "" {
		for _, l := range strings.Split(strings.TrimRight(d.New, "\n"), "\n") {
			fmt.Fprintf(&sb, "  + %s\n", l)
		}
	}
	return sb.String()
}

// Check renders every corpus file and compares it against its committed
// baseline, returning one Diff per deviation (empty = green). Statement
// blocks are compared individually so a diff names the statement that
// moved, not just the file.
func (h *Harness) Check() ([]Diff, error) {
	corpus, err := LoadCorpus(h.CorpusDir)
	if err != nil {
		return nil, err
	}
	var diffs []Diff
	seen := map[string]bool{}
	for _, cf := range corpus {
		seen[cf.Name] = true
		rendered, err := h.render(cf)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cf.Path, err)
		}
		basePath := filepath.Join(h.BaselineDir, cf.Name+".golden")
		baseline, err := os.ReadFile(basePath)
		if err != nil {
			if os.IsNotExist(err) {
				diffs = append(diffs, Diff{File: cf.Name, Kind: "missing baseline (run `sqlregress update`)"})
				continue
			}
			return nil, err
		}
		if string(baseline) == rendered {
			continue
		}
		diffs = append(diffs, diffBlocks(cf.Name, string(baseline), rendered)...)
	}
	// Baselines whose corpus file is gone are stale.
	paths, err := filepath.Glob(filepath.Join(h.BaselineDir, "*.golden"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".golden")
		if !seen[name] {
			diffs = append(diffs, Diff{File: name, Kind: "orphan baseline (corpus file removed; delete the .golden)"})
		}
	}
	return diffs, nil
}

// Update re-blesses every baseline from the current engine output and
// reports how many files it wrote.
func (h *Harness) Update() (int, error) {
	corpus, err := LoadCorpus(h.CorpusDir)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(h.BaselineDir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, cf := range corpus {
		rendered, err := h.render(cf)
		if err != nil {
			return n, fmt.Errorf("%s: %w", cf.Path, err)
		}
		if err := os.WriteFile(filepath.Join(h.BaselineDir, cf.Name+".golden"), []byte(rendered), 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// render executes one corpus file against a fresh database and produces
// its golden text: per statement, the normalized result plus — for every
// SELECT — its EXPLAIN plan, so planner drift is caught.
func (h *Harness) render(cf CorpusFile) (string, error) {
	ctx := context.Background()
	d, err := NewDB()
	if err != nil {
		return "", err
	}
	defer d.Close()
	eng := BaselineEngine(d)
	if h.Perturb != nil {
		h.Perturb(eng)
	}
	for _, sql := range cf.FixtureStatements() {
		if _, err := eng.Exec(sql); err != nil {
			return "", fmt.Errorf("fixture statement %q: %w", sql, err)
		}
	}

	var sb strings.Builder
	for i, sql := range cf.Stmts {
		fmt.Fprintf(&sb, "=== %s:%02d\n%s\n", cf.Name, i+1, sql)
		stmt, err := sqlang.Parse(sql)
		if err != nil {
			fmt.Fprintf(&sb, "--- error\n%s\n", err)
			continue
		}
		sel, isSel := stmt.(*sqlang.SelectStmt)
		if isSel && sel.Analyze {
			return "", fmt.Errorf("statement %d: EXPLAIN ANALYZE is not snapshotable (wall times are nondeterministic); use EXPLAIN", i+1)
		}
		res, err := eng.ExecStmtSQLCtx(ctx, stmt, sql)
		if err != nil {
			fmt.Fprintf(&sb, "--- error\n%s\n", err)
			continue
		}
		switch {
		case isSel && sel.Explain:
			fmt.Fprintf(&sb, "--- plan cbo\n%s", res.Plan())
		case isSel:
			fmt.Fprintf(&sb, "--- result\n%s", NormalizeResult(res, len(sel.OrderBy) > 0, SnapshotPrec))
			ex := *sel
			ex.Explain = true
			pres, err := eng.ExecStmtSQLCtx(ctx, &ex, "")
			if err != nil {
				return "", fmt.Errorf("statement %d: EXPLAIN: %w", i+1, err)
			}
			fmt.Fprintf(&sb, "--- plan cbo\n%s", pres.Plan())
		default:
			fmt.Fprintf(&sb, "--- result\n%s", NormalizeResult(res, false, SnapshotPrec))
		}
	}
	return sb.String(), nil
}

// block is one `=== label` section of a golden file.
type block struct {
	label string
	body  string
}

// splitBlocks cuts a golden text into its statement blocks.
func splitBlocks(text string) []block {
	var out []block
	for _, part := range strings.Split(text, "\n=== ") {
		if part == "" {
			continue
		}
		part = strings.TrimPrefix(part, "=== ")
		label, body, _ := strings.Cut(part, "\n")
		out = append(out, block{label: label, body: body})
	}
	return out
}

// diffBlocks compares two golden texts block-by-block.
func diffBlocks(file, old, new string) []Diff {
	ob, nb := splitBlocks(old), splitBlocks(new)
	om := map[string]string{}
	for _, b := range ob {
		om[b.label] = b.body
	}
	nm := map[string]string{}
	for _, b := range nb {
		nm[b.label] = b.body
	}
	var diffs []Diff
	for _, b := range nb {
		oldBody, ok := om[b.label]
		if !ok {
			diffs = append(diffs, Diff{File: file, Label: b.label, Kind: "missing statement baseline", New: b.body})
			continue
		}
		if oldBody != b.body {
			diffs = append(diffs, Diff{File: file, Label: b.label, Kind: "changed", Old: oldBody, New: b.body})
		}
	}
	for _, b := range ob {
		if _, ok := nm[b.label]; !ok {
			diffs = append(diffs, Diff{File: file, Label: b.label, Kind: "statement removed from corpus", Old: b.body})
		}
	}
	return diffs
}
