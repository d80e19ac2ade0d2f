package etl

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"genalg/internal/gdt"
	"genalg/internal/ontology"
	"genalg/internal/sources"
)

// ---- diff ----

func TestDiffIdentical(t *testing.T) {
	d := Diff("a\nb\nc\n", "a\nb\nc\n")
	if d.EditDistance() != 0 {
		t.Errorf("EditDistance = %d", d.EditDistance())
	}
}

func TestDiffInsertDelete(t *testing.T) {
	d := Diff("a\nb\nc\n", "a\nX\nb\nc\n")
	if got := d.ChangedB(); len(got) != 1 || d.BLines[got[0]] != "X" {
		t.Errorf("ChangedB = %v", got)
	}
	if len(d.ChangedA()) != 0 {
		t.Errorf("ChangedA = %v", d.ChangedA())
	}
	d = Diff("a\nb\nc\n", "a\nc\n")
	if got := d.ChangedA(); len(got) != 1 || d.ALines[got[0]] != "b" {
		t.Errorf("delete ChangedA = %v", got)
	}
}

func TestDiffReplacement(t *testing.T) {
	d := Diff("one\ntwo\nthree\n", "one\nTWO\nthree\n")
	if len(d.ChangedA()) != 1 || len(d.ChangedB()) != 1 {
		t.Errorf("replacement: A=%v B=%v", d.ChangedA(), d.ChangedB())
	}
}

func TestDiffEmptySides(t *testing.T) {
	d := Diff("", "a\nb\n")
	if len(d.ChangedB()) != 2 {
		t.Errorf("from empty: %v", d.ChangedB())
	}
	d = Diff("a\nb\n", "")
	if len(d.ChangedA()) != 2 {
		t.Errorf("to empty: %v", d.ChangedA())
	}
	d = Diff("", "")
	if d.EditDistance() != 0 {
		t.Error("empty-empty")
	}
}

// Property: kept lines form a common subsequence, and edit distance is
// consistent with kept counts.
func TestDiffCommonSubsequenceProperty(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		toText := func(raw []uint8) string {
			var sb strings.Builder
			for _, x := range raw {
				sb.WriteString(string(rune('a' + x%5)))
				sb.WriteByte('\n')
			}
			return sb.String()
		}
		a, b := toText(aRaw), toText(bRaw)
		d := Diff(a, b)
		// Kept lines on both sides must be equal in order.
		var ak, bk []string
		for i, kept := range d.AKept {
			if kept {
				ak = append(ak, d.ALines[i])
			}
		}
		for i, kept := range d.BKept {
			if kept {
				bk = append(bk, d.BLines[i])
			}
		}
		if len(ak) != len(bk) {
			return false
		}
		for i := range ak {
			if ak[i] != bk[i] {
				return false
			}
		}
		return d.EditDistance() == (len(d.ALines)-len(ak))+(len(d.BLines)-len(bk))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ---- monitors: one per Figure-2 cell ----

// checkDetector applies updates and asserts the detector reports exactly
// the mutated IDs.
func checkDetector(t *testing.T, det Detector, repo *sources.Repo, seed int64, n int) {
	t.Helper()
	// A quiet poll yields nothing.
	ds, err := det.Poll(context.Background())
	if err != nil {
		t.Fatalf("%s: initial poll: %v", det.Name(), err)
	}
	if len(ds) != 0 {
		t.Fatalf("%s: initial poll returned %d deltas", det.Name(), len(ds))
	}
	muts := repo.ApplyRandomUpdates(seed, n)
	ds, err = det.Poll(context.Background())
	if err != nil {
		t.Fatalf("%s: poll: %v", det.Name(), err)
	}
	// Net effect per ID (later mutations override earlier ones).
	wantKind := map[string]sources.MutationKind{}
	existedBefore := map[string]bool{}
	for _, m := range muts {
		if _, seen := wantKind[m.ID]; !seen {
			existedBefore[m.ID] = m.Kind != sources.MutInsert
		}
		wantKind[m.ID] = m.Kind
	}
	// Build net expectation: for IDs seen multiple times the net is
	// computed from (existedBefore, finalState).
	finalState := map[string]bool{}
	for id := range wantKind {
		finalState[id] = wantKind[id] != sources.MutDelete
	}
	type net struct {
		id   string
		kind sources.MutationKind
	}
	var wantNet []net
	for id := range wantKind {
		before, after := existedBefore[id], finalState[id]
		switch {
		case !before && after:
			wantNet = append(wantNet, net{id, sources.MutInsert})
		case before && !after:
			wantNet = append(wantNet, net{id, sources.MutDelete})
		case before && after:
			wantNet = append(wantNet, net{id, sources.MutUpdate})
		}
	}
	// Log/trigger monitors report every mutation; snapshot monitors report
	// net effects. Verify coverage: every net-changed ID appears.
	got := map[string]bool{}
	for _, d := range ds {
		got[d.ID] = true
	}
	for _, w := range wantNet {
		if !got[w.id] {
			t.Errorf("%s: missed change to %s (%v)", det.Name(), w.id, w.kind)
		}
	}
	// No phantom IDs.
	valid := map[string]bool{}
	for _, m := range muts {
		valid[m.ID] = true
	}
	for _, d := range ds {
		if !valid[d.ID] {
			t.Errorf("%s: phantom delta %v", det.Name(), d)
		}
		if d.Tick == 0 {
			t.Errorf("%s: delta missing tick", det.Name())
		}
	}
	// A follow-up quiet poll is empty again.
	ds, err = det.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("%s: quiet re-poll returned %d deltas", det.Name(), len(ds))
	}
}

func TestTriggerMonitor(t *testing.T) {
	repo := sources.NewRepo("act", sources.FormatCSV, sources.CapActive, sources.Generate(1, sources.GenOptions{N: 40}))
	det, err := NewTriggerMonitor(repo)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	if det.Technique() != "trigger" {
		t.Error("technique")
	}
	checkDetector(t, det, repo, 10, 25)
}

func TestLogMonitor(t *testing.T) {
	repo := sources.NewRepo("log", sources.FormatGenBank, sources.CapLogged, sources.Generate(2, sources.GenOptions{N: 40}))
	det, err := NewLogMonitor(repo)
	if err != nil {
		t.Fatal(err)
	}
	checkDetector(t, det, repo, 11, 25)
	// Log monitor on a non-logged source is rejected.
	plain := sources.NewRepo("q", sources.FormatCSV, sources.CapQueryable, nil)
	if _, err := NewLogMonitor(plain); err == nil {
		t.Error("log monitor accepted queryable source")
	}
}

func TestSnapshotDiffMonitor(t *testing.T) {
	repo := sources.NewRepo("rel", sources.FormatCSV, sources.CapQueryable, sources.Generate(3, sources.GenOptions{N: 40}))
	det, err := NewSnapshotDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	checkDetector(t, det, repo, 12, 25)
}

func TestLCSDiffMonitorGenBank(t *testing.T) {
	repo := sources.NewRepo("gb", sources.FormatGenBank, sources.CapNonQueryable, sources.Generate(4, sources.GenOptions{N: 40}))
	det, err := NewLCSDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	checkDetector(t, det, repo, 13, 25)
	if det.LastEditDistance != 0 {
		t.Errorf("LastEditDistance after quiet poll = %d", det.LastEditDistance)
	}
}

func TestLCSDiffMonitorFASTA(t *testing.T) {
	repo := sources.NewRepo("fa", sources.FormatFASTA, sources.CapNonQueryable, sources.Generate(5, sources.GenOptions{N: 40}))
	det, err := NewLCSDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	checkDetector(t, det, repo, 14, 25)
}

func TestTreeDiffMonitor(t *testing.T) {
	repo := sources.NewRepo("ace", sources.FormatACeDB, sources.CapNonQueryable, sources.Generate(6, sources.GenOptions{N: 40}))
	det, err := NewTreeDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	checkDetector(t, det, repo, 15, 25)
	// Attribute-level detail present for updates.
	repo.ApplyRandomUpdates(16, 10)
	ds, err := det.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Kind == sources.MutUpdate {
			attrs := det.ChangedAttrs[d.ID]
			if len(attrs) == 0 {
				t.Errorf("update %s has no changed attributes", d.ID)
			}
		}
	}
	// Tree diff on a flat source is rejected.
	flat := sources.NewRepo("f", sources.FormatFASTA, sources.CapNonQueryable, nil)
	if _, err := NewTreeDiffMonitor(context.Background(), flat); err == nil {
		t.Error("tree diff accepted flat source")
	}
}

func TestForRepoSelectsTechnique(t *testing.T) {
	cases := []struct {
		cap    sources.Capability
		format sources.Format
		want   string
	}{
		{sources.CapActive, sources.FormatCSV, "trigger"},
		{sources.CapLogged, sources.FormatGenBank, "inspect-log"},
		{sources.CapQueryable, sources.FormatCSV, "snapshot-differential"},
		{sources.CapNonQueryable, sources.FormatACeDB, "tree-diff"},
		{sources.CapNonQueryable, sources.FormatGenBank, "lcs-diff"},
		{sources.CapQueryable, sources.FormatFASTA, "lcs-diff"},
	}
	for _, c := range cases {
		repo := sources.NewRepo("r", c.format, c.cap, sources.Generate(1, sources.GenOptions{N: 3}))
		det, err := ForRepo(repo)
		if err != nil {
			t.Fatalf("%v/%v: %v", c.cap, c.format, err)
		}
		if det.Technique() != c.want {
			t.Errorf("%v/%v -> %s, want %s", c.cap, c.format, det.Technique(), c.want)
		}
		if tm, ok := det.(*TriggerMonitor); ok {
			tm.Close()
		}
	}
}

// ---- wrapper ----

func TestWrapperClassifiesAndConverts(t *testing.T) {
	w := NewWrapper(ontology.Standard())
	recs := sources.Generate(7, sources.GenOptions{N: 6})
	entries, errs := w.WrapAll(recs, "genbank1")
	if len(errs) != 0 {
		t.Fatalf("wrap errors: %v", errs)
	}
	if len(entries) != 6 {
		t.Fatalf("entries = %d", len(entries))
	}
	genes, dnas := 0, 0
	for _, e := range entries {
		switch v := e.Value.(type) {
		case gdt.Gene:
			genes++
			if e.TermID != "GA:0004" {
				t.Errorf("gene term = %s", e.TermID)
			}
			if len(v.Exons) == 0 {
				t.Error("gene without exons")
			}
		case gdt.DNA:
			dnas++
			if e.TermID != "GA:0002" {
				t.Errorf("dna term = %s", e.TermID)
			}
		default:
			t.Errorf("unexpected GDT %T", v)
		}
		if e.Source != "genbank1" || e.Quality == 0 {
			t.Errorf("entry metadata = %+v", e)
		}
	}
	if genes != 2 || dnas != 4 {
		t.Errorf("genes=%d dnas=%d", genes, dnas)
	}
}

func TestWrapperRejectsBadRecords(t *testing.T) {
	w := NewWrapper(ontology.Standard())
	bad := []sources.Record{
		{ID: "X", Sequence: "ACGTN"},                  // bad letter
		{ID: "Y", Sequence: "ACGT", ExonSpec: "0-99"}, // exon out of bounds
		{ID: "OK", Sequence: "ACGT", Quality: 1},
	}
	entries, errs := w.WrapAll(bad, "src")
	if len(entries) != 1 || entries[0].ID != "OK" {
		t.Errorf("entries = %v", entries)
	}
	if len(errs) != 2 {
		t.Errorf("errs = %v", errs)
	}
}

// ---- integrator ----

func TestIntegrateDuplicatesReinforce(t *testing.T) {
	w := NewWrapper(ontology.Standard())
	recs := sources.Generate(8, sources.GenOptions{N: 4})
	a, _ := w.WrapAll(recs, "srcA")
	b, _ := w.WrapAll(recs, "srcB") // identical content, different source
	merged, stats := Integrate(append(a, b...))
	if stats.Entities != 4 || stats.Duplicates != 4 || stats.Conflicts != 0 {
		t.Errorf("stats = %+v", stats)
	}
	for _, m := range merged {
		if len(m.Sources) != 2 {
			t.Errorf("%s sources = %v", m.ID, m.Sources)
		}
		// Agreement reinforces confidence beyond either single source.
		if m.Value.Confidence() <= 0.9 {
			t.Errorf("%s confidence = %v", m.ID, m.Value.Confidence())
		}
		if len(m.Value.Alternatives()) != 0 {
			t.Errorf("%s has phantom alternatives", m.ID)
		}
	}
}

func TestIntegrateConflictsKeepBoth(t *testing.T) {
	w := NewWrapper(ontology.Standard())
	clean := sources.Generate(9, sources.GenOptions{N: 10})
	noisy := sources.Generate(9, sources.GenOptions{N: 10, ErrorRate: 1}) // all mutated
	a, _ := w.WrapAll(clean, "curated")
	b, _ := w.WrapAll(noisy, "raw")
	merged, stats := Integrate(append(a, b...))
	if stats.Conflicts != 10 {
		t.Errorf("conflicts = %d", stats.Conflicts)
	}
	for _, m := range merged {
		// The curated (higher-quality) value must win...
		if m.Quality < 0.9 {
			t.Errorf("%s primary quality = %v", m.ID, m.Quality)
		}
		// ...and the noisy alternative must be retained (C9).
		if len(m.Value.Alternatives()) != 1 {
			t.Errorf("%s alternatives = %d", m.ID, len(m.Value.Alternatives()))
		}
	}
}

func TestIntegrateDeterministicOrder(t *testing.T) {
	w := NewWrapper(ontology.Standard())
	recs := sources.Generate(10, sources.GenOptions{N: 8})
	a, _ := w.WrapAll(recs, "srcA")
	m1, _ := Integrate(a)
	// Reversed input order yields identical output order.
	rev := make([]Entry, len(a))
	for i := range a {
		rev[i] = a[len(a)-1-i]
	}
	m2, _ := Integrate(rev)
	if len(m1) != len(m2) {
		t.Fatal("length mismatch")
	}
	for i := range m1 {
		if m1[i].ID != m2[i].ID {
			t.Fatalf("order differs at %d: %s vs %s", i, m1[i].ID, m2[i].ID)
		}
	}
}

func BenchmarkMyersDiffSmallDelta(b *testing.B) {
	repo := sources.NewRepo("gb", sources.FormatGenBank, sources.CapNonQueryable, sources.Generate(1, sources.GenOptions{N: 500}))
	before := repo.Snapshot()
	repo.ApplyRandomUpdates(2, 5)
	after := repo.Snapshot()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Diff(before, after)
	}
}

func BenchmarkIntegrate(b *testing.B) {
	w := NewWrapper(ontology.Standard())
	a, _ := w.WrapAll(sources.Generate(3, sources.GenOptions{N: 200}), "srcA")
	c, _ := w.WrapAll(sources.Generate(3, sources.GenOptions{N: 200, ErrorRate: 0.4}), "srcB")
	all := append(a, c...)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Integrate(all)
	}
}

func TestPollAllMergesConcurrently(t *testing.T) {
	repos := []*sources.Repo{
		sources.NewRepo("a-log", sources.FormatGenBank, sources.CapLogged, sources.Generate(1, sources.GenOptions{N: 30, IDPrefix: "A"})),
		sources.NewRepo("b-csv", sources.FormatCSV, sources.CapQueryable, sources.Generate(2, sources.GenOptions{N: 30, IDPrefix: "B"})),
		sources.NewRepo("c-ace", sources.FormatACeDB, sources.CapNonQueryable, sources.Generate(3, sources.GenOptions{N: 30, IDPrefix: "C"})),
	}
	var dets []Detector
	for _, r := range repos {
		d, err := ForRepo(r)
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, d)
	}
	// Quiet round.
	ds, err := PollAll(context.Background(), dets, 0)
	if err != nil || len(ds) != 0 {
		t.Fatalf("quiet PollAll = %d deltas, %v", len(ds), err)
	}
	for i, r := range repos {
		r.ApplyRandomUpdates(int64(i+50), 5)
	}
	ds, err = PollAll(context.Background(), dets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no deltas")
	}
	// Sorted by (source, id) and covering all three sources.
	seen := map[string]bool{}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Source > ds[i].Source ||
			(ds[i-1].Source == ds[i].Source && ds[i-1].ID > ds[i].ID) {
			t.Fatalf("deltas unordered at %d", i)
		}
	}
	for _, d := range ds {
		seen[d.Source] = true
	}
	if len(seen) != 3 {
		t.Errorf("sources covered = %v", seen)
	}
}

func TestPipelineRounds(t *testing.T) {
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(7, sources.GenOptions{N: 20}))
	det, err := ForRepo(repo)
	if err != nil {
		t.Fatal(err)
	}
	var applied []Delta
	p := NewPipeline([]Detector{det}, func(_ context.Context, ds []Delta) (SinkReport, error) {
		applied = append(applied, ds...)
		return SinkReport{RecordsOK: len(ds)}, nil
	})
	repo.ApplyRandomUpdates(1, 5)
	rep, err := p.Round(context.Background())
	if err != nil || rep.Deltas == 0 {
		t.Fatalf("round 1 = %d, %v", rep.Deltas, err)
	}
	repo.ApplyRandomUpdates(2, 5)
	if _, err := p.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Rounds != 2 || st.Deltas != int64(len(applied)) {
		t.Errorf("stats = %d rounds, %d deltas (applied %d)", st.Rounds, st.Deltas, len(applied))
	}
}

func TestPollAllPropagatesFailure(t *testing.T) {
	repo := sources.NewRepo("ok", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(7, sources.GenOptions{N: 5}))
	good, err := ForRepo(repo)
	if err != nil {
		t.Fatal(err)
	}
	bad := failingDetector{}
	if _, err := PollAll(context.Background(), []Detector{good, bad}, 0); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failure not propagated: %v", err)
	}
}

type failingDetector struct{}

func (failingDetector) Name() string                          { return "bad" }
func (failingDetector) Technique() string                     { return "none" }
func (failingDetector) Poll(context.Context) ([]Delta, error) { return nil, fmt.Errorf("boom") }

// ---- entity matching (semantic heterogeneity, §5.2) ----

// crossAccessionEntries builds two sources holding the same biology under
// different accession schemes; source B's copy of record i is optionally
// slightly mutated.
func crossAccessionEntries(t *testing.T, n int, mutate bool) []Entry {
	t.Helper()
	w := NewWrapper(ontology.Standard())
	recsA := sources.Generate(123, sources.GenOptions{N: n, IDPrefix: "GBK"})
	errRate := 0.0
	if mutate {
		errRate = 1.0
	}
	recsB := sources.Generate(123, sources.GenOptions{N: n, IDPrefix: "EMB", ErrorRate: errRate})
	a, errs := w.WrapAll(recsA, "genbank1")
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	b, errs := w.WrapAll(recsB, "embl1")
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	return append(a, b...)
}

func TestMatchEntitiesExact(t *testing.T) {
	entries := crossAccessionEntries(t, 12, false)
	matched, xref, mstats := MatchEntities(entries, MatchOptions{ExactOnly: true})
	merged, istats := Integrate(matched)
	if mstats.ExactMerges != 12 || mstats.NearMerges != 0 {
		t.Errorf("match stats = %+v", mstats)
	}
	if len(merged) != 12 {
		t.Errorf("entities = %d, want 12 (cross-accession twins merged)", len(merged))
	}
	// Every GBK accession folded into its EMB twin ("EMB" sorts before
	// "GBK", so EMB accessions are canonical).
	for orig, canon := range xref {
		if orig[:3] != "GBK" || canon[:3] != "EMB" {
			t.Errorf("xref %s -> %s", orig, canon)
		}
	}
	if len(xref) != 12 {
		t.Errorf("xref size = %d", len(xref))
	}
	// Both sources contribute to each merged entity.
	if istats.Duplicates != 12 {
		t.Errorf("integration stats = %+v", istats)
	}
	for _, m := range merged {
		if len(m.Sources) != 2 {
			t.Errorf("%s sources = %v", m.ID, m.Sources)
		}
	}
}

func TestMatchEntitiesNearIdentity(t *testing.T) {
	// Mutated copies (3 substitutions in 240 bases ≈ 98.8% identity) must
	// merge through the near-match pass, not the exact one.
	entries := crossAccessionEntries(t, 10, true)
	matched, _, mstats := MatchEntities(entries, MatchOptions{})
	merged, _ := Integrate(matched)
	if mstats.NearMerges == 0 {
		t.Fatalf("no near merges: %+v", mstats)
	}
	if mstats.ExactMerges+mstats.NearMerges != 10 {
		t.Errorf("total merges = %+v", mstats)
	}
	if len(merged) != 10 {
		t.Errorf("entities = %d, want 10", len(merged))
	}
	// Mutated copies disagree, so the merged entities keep alternatives.
	withAlts := 0
	for _, m := range merged {
		if len(m.Value.Alternatives()) > 0 {
			withAlts++
		}
	}
	if withAlts != 10 {
		t.Errorf("entities with retained alternatives = %d", withAlts)
	}
	// ExactOnly must NOT merge mutated copies.
	_, _, mstats2 := MatchEntities(crossAccessionEntries(t, 10, true), MatchOptions{ExactOnly: true})
	if mstats2.ExactMerges != 0 || mstats2.NearMerges != 0 {
		t.Errorf("exact-only merged mutated copies: %+v", mstats2)
	}
}

func TestMatchEntitiesDistinctStayApart(t *testing.T) {
	// Unrelated sequences (different seeds) must not merge.
	w := NewWrapper(ontology.Standard())
	a, _ := w.WrapAll(sources.Generate(1, sources.GenOptions{N: 8, IDPrefix: "AAA"}), "s1")
	b, _ := w.WrapAll(sources.Generate(999, sources.GenOptions{N: 8, IDPrefix: "BBB"}), "s2")
	matched, xref, mstats := MatchEntities(append(a, b...), MatchOptions{})
	merged, _ := Integrate(matched)
	if len(merged) != 16 || len(xref) != 0 {
		t.Errorf("unrelated sequences merged: %d entities, xref %v, %+v", len(merged), xref, mstats)
	}
}

func TestMatchEntitiesRewritesValueIDs(t *testing.T) {
	entries := crossAccessionEntries(t, 6, false)
	matched, _, _ := MatchEntities(entries, MatchOptions{ExactOnly: true})
	for _, e := range matched {
		switch v := e.Value.(type) {
		case gdt.DNA:
			if v.ID != e.ID {
				t.Errorf("dna value ID %s != entry ID %s", v.ID, e.ID)
			}
		case gdt.Gene:
			if v.ID != e.ID {
				t.Errorf("gene value ID %s != entry ID %s", v.ID, e.ID)
			}
		}
	}
}
