// Per-experiment benchmark suite: one benchmark per table and figure of the
// paper plus the measured experiments E1-E11 and ablation A1 of DESIGN.md.
// Run with
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the paper's qualitative claim versus the measured
// shape for each benchmark.
package genalg

import (
	"context"
	"fmt"
	"testing"
	"time"

	"strings"

	"genalg/internal/adapter"
	"genalg/internal/align"
	"genalg/internal/capability"
	"genalg/internal/core"
	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/genops"
	"genalg/internal/kmeridx"
	"genalg/internal/mediator"
	"genalg/internal/ontology"
	"genalg/internal/seq"
	"genalg/internal/sources"
	"genalg/internal/sqlang"
	"genalg/internal/storage"
	"genalg/internal/warehouse"
)

// ---- T1: Table 1 ----

// BenchmarkTable1Validation regenerates Table 1's GenAlg column from live
// feature checks (experiment T1). Each iteration validates all 15 claims.
func BenchmarkTable1Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		failed, errs := capability.Validate(capability.NewChecks())
		if len(failed) > 0 {
			b.Fatalf("claims failed: %v (%v)", failed, errs[0])
		}
	}
}

// ---- F1 / F3 / E1: mediator vs warehouse ----

func e1Repos(n int) []*sources.Repo {
	return []*sources.Repo{
		sources.NewRepo("s1", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(11, sources.GenOptions{N: n, IDPrefix: "A"})),
		sources.NewRepo("s2", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(12, sources.GenOptions{N: n, IDPrefix: "B"})),
		sources.NewRepo("s3", sources.FormatGenBank, sources.CapNonQueryable,
			sources.Generate(13, sources.GenOptions{N: n, IDPrefix: "C"})),
		sources.NewRepo("s4", sources.FormatFASTA, sources.CapNonQueryable,
			sources.Generate(14, sources.GenOptions{N: n, IDPrefix: "D"})),
	}
}

// BenchmarkFig1MediatorQuery measures one query-driven search across four
// latency-simulated sources (Figure 1's architecture).
func BenchmarkFig1MediatorQuery(b *testing.B) {
	for _, latency := range []time.Duration{200 * time.Microsecond, 2 * time.Millisecond} {
		b.Run(fmt.Sprintf("latency=%v", latency), func(b *testing.B) {
			var srcs []mediator.Source
			for _, r := range e1Repos(200) {
				srcs = append(srcs, sources.NewRemote(r, latency, 0))
			}
			med := mediator.New(srcs...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := med.FindContaining("ACGTACG"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3WarehouseQuery measures the same search against the loaded
// Unifying Database (Figure 3's architecture).
func BenchmarkFig3WarehouseQuery(b *testing.B) {
	w, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.InitialLoad(context.Background(), e1Repos(200)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query(context.Background(), "bench", `SELECT id FROM fragments WHERE contains(fragment, 'ACGTACG')`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1WarehouseVsMediator measures the crossover: total time for a
// query batch, warehouse including its one-time load.
func BenchmarkE1WarehouseVsMediator(b *testing.B) {
	const latency = 500 * time.Microsecond
	patterns := []string{"ACGTACG", "GGGTTTA", "TTTTCCC", "ATTGCCA"}
	for _, nq := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("mediator/queries=%d", nq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var srcs []mediator.Source
				for _, r := range e1Repos(150) {
					srcs = append(srcs, sources.NewRemote(r, latency, 0))
				}
				med := mediator.New(srcs...)
				for q := 0; q < nq; q++ {
					if _, err := med.FindContaining(patterns[q%len(patterns)]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("warehouse/queries=%d", nq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
				if err != nil {
					b.Fatal(err)
				}
				repos := e1Repos(150)
				for _, r := range repos {
					_ = sources.NewRemote(r, latency, 0).Snapshot() // pay the load transfer
				}
				if _, err := w.InitialLoad(context.Background(), repos); err != nil {
					b.Fatal(err)
				}
				for q := 0; q < nq; q++ {
					sql := fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s')`, patterns[q%len(patterns)])
					if _, err := w.Query(context.Background(), "bench", sql); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---- F2: change-detection grid ----

// BenchmarkFig2ChangeDetection measures every Figure-2 cell: detection time
// for a 1% churn on a 2000-record source.
func BenchmarkFig2ChangeDetection(b *testing.B) {
	cells := []struct {
		name   string
		format sources.Format
		cap    sources.Capability
	}{
		{"trigger", sources.FormatCSV, sources.CapActive},
		{"inspect-log", sources.FormatGenBank, sources.CapLogged},
		{"snapshot-differential", sources.FormatCSV, sources.CapQueryable},
		{"lcs-diff-genbank", sources.FormatGenBank, sources.CapNonQueryable},
		{"lcs-diff-fasta", sources.FormatFASTA, sources.CapNonQueryable},
		{"tree-diff", sources.FormatACeDB, sources.CapNonQueryable},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			repo := sources.NewRepo("r", c.format, c.cap, sources.Generate(9, sources.GenOptions{N: 2000}))
			det, err := etl.ForRepo(repo)
			if err != nil {
				b.Fatal(err)
			}
			if tm, ok := det.(*etl.TriggerMonitor); ok {
				defer tm.Close()
			}
			if _, err := det.Poll(context.Background()); err != nil {
				b.Fatal(err)
			}
			// The timed unit is a full churn+detect cycle: mutating the
			// source is part of the op so b.N stays small even for the
			// microsecond-scale detectors (a StopTimer pattern would drive
			// b.N into the millions and the untimed churn would dominate
			// wall time). Pure detection cost is reported separately as the
			// detect-ns/op metric; cmd/benchtab prints the same grid from
			// single-shot measurements.
			var detectNS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo.ApplyRandomUpdates(int64(i), 20)
				t0 := time.Now()
				if _, err := det.Poll(context.Background()); err != nil {
					b.Fatal(err)
				}
				detectNS += time.Since(t0).Nanoseconds()
			}
			b.ReportMetric(float64(detectNS)/float64(b.N), "detect-ns/op")
		})
	}
}

// ---- E2: packed vs pointer representations ----

type pointerDNA struct {
	base seq.Base
	next *pointerDNA
}

func buildPointerDNA(s seq.NucSeq) *pointerDNA {
	var head, tail *pointerDNA
	for i := 0; i < s.Len(); i++ {
		n := &pointerDNA{base: s.At(i)}
		if head == nil {
			head = n
		} else {
			tail.next = n
		}
		tail = n
	}
	return head
}

func (p *pointerDNA) serialize() []byte {
	var out []byte
	for n := p; n != nil; n = n.next {
		out = append(out, byte(n.base))
	}
	return out
}

// BenchmarkE2PackedVsPointer measures the Section 4.3 representation claim.
func BenchmarkE2PackedVsPointer(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		recs := sources.Generate(5, sources.GenOptions{N: 1, SeqLen: n})
		d := gdt.MustDNA("x", recs[0].Sequence)
		b.Run(fmt.Sprintf("packed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf := d.Pack()
				if _, err := gdt.Unpack(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pointer/n=%d", n), func(b *testing.B) {
			ptr := buildPointerDNA(d.Seq)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf := ptr.serialize()
				// "Unpack": rebuild the pointer structure.
				var head, tail *pointerDNA
				for _, raw := range buf {
					node := &pointerDNA{base: seq.Base(raw)}
					if head == nil {
						head = node
					} else {
						tail.next = node
					}
					tail = node
				}
			}
		})
	}
}

// ---- E3: view maintenance ----

// BenchmarkE3ViewMaintenance measures incremental deltas vs full reload at
// increasing churn.
func BenchmarkE3ViewMaintenance(b *testing.B) {
	const n = 1000
	for _, churn := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("incremental/churn=%d", churn), func(b *testing.B) {
			w, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
			if err != nil {
				b.Fatal(err)
			}
			repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
				sources.Generate(21, sources.GenOptions{N: n}))
			if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
				b.Fatal(err)
			}
			det, err := etl.NewSnapshotDiffMonitor(context.Background(), repo)
			if err != nil {
				b.Fatal(err)
			}
			// Timed unit: churn + detect + apply (StopTimer would let b.N
			// explode for small churns and the untimed work dominate wall
			// time). Pure maintenance cost is the apply-ns/op metric.
			var applyNS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo.ApplyRandomUpdates(int64(i), churn)
				deltas, err := det.Poll(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
					b.Fatal(err)
				}
				applyNS += time.Since(t0).Nanoseconds()
			}
			b.ReportMetric(float64(applyNS)/float64(b.N), "apply-ns/op")
		})
		b.Run(fmt.Sprintf("full-reload/churn=%d", churn), func(b *testing.B) {
			w, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
			if err != nil {
				b.Fatal(err)
			}
			repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
				sources.Generate(21, sources.GenOptions{N: n}))
			if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				repo.ApplyRandomUpdates(int64(i), churn)
				b.StartTimer()
				if err := w.FullReload([]*sources.Repo{repo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E4/E5: genomic index vs scan, the Section 6.3 query ----

func loadedFragmentsK(b *testing.B, n int, indexed bool, k int) (*warehouse.Warehouse, string) {
	w, err := warehouse.Open(32768, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		b.Fatal(err)
	}
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(41, sources.GenOptions{N: n}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		b.Fatal(err)
	}
	if indexed {
		tbl, _ := w.DB.Table(warehouse.TableFragments)
		if err := tbl.CreateGenomicIndex("fragment", k); err != nil {
			b.Fatal(err)
		}
	}
	pat := repo.Records()[n/2].Sequence[40:72]
	return w, pat
}

func loadedFragments(b *testing.B, n int, indexed bool) (*warehouse.Warehouse, string) {
	return loadedFragmentsK(b, n, indexed, 11)
}

// BenchmarkE4GenomicIndex measures contains() with and without the k-mer
// index across corpus sizes.
func BenchmarkE4GenomicIndex(b *testing.B) {
	for _, n := range []int{200, 1000, 4000} {
		for _, indexed := range []bool{false, true} {
			mode := "scan"
			if indexed {
				mode = "kmer"
			}
			b.Run(fmt.Sprintf("%s/corpus=%d", mode, n), func(b *testing.B) {
				w, pat := loadedFragments(b, n, indexed)
				sql := fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s')`, pat)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Query(context.Background(), "bench", sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE5ContainsQuery runs the paper's verbatim Section 6.3 query over
// 2000 fragments, indexed and not.
func BenchmarkE5ContainsQuery(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		mode := "scan"
		if indexed {
			mode = "kmer"
		}
		b.Run(mode, func(b *testing.B) {
			// Word length 8 so the paper's 9-base pattern is indexable.
			w, _ := loadedFragmentsK(b, 2000, indexed, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Query(context.Background(), "bench", `SELECT id FROM fragments WHERE contains(fragment, 'ATTGCCATA')`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E6: term evaluation overhead ----

// BenchmarkE6TermEvalOverhead compares direct Go composition against
// algebra-term evaluation of the central dogma.
func BenchmarkE6TermEvalOverhead(b *testing.B) {
	recs := sources.Generate(7, sources.GenOptions{N: 3, SeqLen: 2400})
	wrap := etl.NewWrapper(ontology.Standard())
	entry, err := wrap.Wrap(recs[0], "bench")
	if err != nil {
		b.Fatal(err)
	}
	g := entry.Value.(gdt.Gene)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pt, err := genops.Transcribe(g)
			if err != nil {
				b.Fatal(err)
			}
			m, err := genops.SpliceCanonical(pt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := genops.Translate(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("term", func(b *testing.B) {
		kernel := genops.NewKernel()
		term := core.MustApply(kernel.Sig, "translate",
			core.MustApply(kernel.Sig, "splice",
				core.MustApply(kernel.Sig, "transcribe", core.Var(genops.SortGene, "g"))))
		env := core.Env{"g": g}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kernel.Alg.Eval(term, env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E7: reconciliation ----

// BenchmarkE7Reconciliation measures the integrator over overlapping noisy
// sources at the paper's B10 error rates.
func BenchmarkE7Reconciliation(b *testing.B) {
	wrap := etl.NewWrapper(ontology.Standard())
	for _, rate := range []float64{0.3, 0.6} {
		b.Run(fmt.Sprintf("errorrate=%.1f", rate), func(b *testing.B) {
			a, _ := wrap.WrapAll(sources.Generate(3, sources.GenOptions{N: 300}), "srcA")
			c, _ := wrap.WrapAll(sources.Generate(3, sources.GenOptions{N: 300, ErrorRate: rate}), "srcB")
			d, _ := wrap.WrapAll(sources.Generate(3, sources.GenOptions{N: 300, ErrorRate: rate / 2}), "srcC")
			all := append(append(a, c...), d...)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				merged, stats := etl.Integrate(all)
				if len(merged) != 300 || stats.Conflicts == 0 {
					b.Fatalf("unexpected integration: %d entities, %+v", len(merged), stats)
				}
			}
		})
	}
}

// ---- E8: selectivity-aware planning ----

// BenchmarkE8SelectivityPlanning compares the planner's predicate order
// against the naive (written) order for a query mixing a cheap selective
// scalar predicate with an expensive UDF predicate.
func BenchmarkE8SelectivityPlanning(b *testing.B) {
	build := func() *sqlang.Engine {
		w, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			b.Fatal(err)
		}
		repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(61, sources.GenOptions{N: 1500}))
		if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
			b.Fatal(err)
		}
		return w.Engine
	}
	// The planner hoists quality < 0.92 (cheap, drops most rows) ahead of
	// the expensive resembles-style predicate regardless of written order.
	planned := `SELECT id FROM fragments WHERE gccontent(fragment) > 0.9 AND quality < 0.92`
	b.Run("planned", func(b *testing.B) {
		e := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Exec(planned); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Naive baseline: force UDF-first evaluation by disabling ordering
	// via a single opaque predicate (AND inside a function is not split).
	b.Run("naive-udf-always", func(b *testing.B) {
		e := build()
		// Evaluate the expensive predicate on every row: no scalar filter.
		q := `SELECT id FROM fragments WHERE gccontent(fragment) > 0.9`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: alignment substrate ----

// BenchmarkE9Alignment measures the alignment algorithms at paper-relevant
// scales.
func BenchmarkE9Alignment(b *testing.B) {
	mk := func(seed int64, n int) seq.NucSeq {
		recs := sources.Generate(seed, sources.GenOptions{N: 1, SeqLen: n})
		return seq.MustNucSeq(seq.AlphaDNA, recs[0].Sequence)
	}
	for _, n := range []int{100, 1000} {
		x, y := mk(71, n), mk(72, n)
		b.Run(fmt.Sprintf("global/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := align.Global(x, y, align.DefaultScoring); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("local/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := align.Local(x, y, align.DefaultScoring); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("banded32/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := align.GlobalBanded(x, y, align.DefaultScoring, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("seeded-search/100x1000", func(b *testing.B) {
		dbx, err := align.NewDatabase(11)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			dbx.Add(fmt.Sprintf("s%d", i), mk(int64(100+i), 1000))
		}
		q := mk(100, 1000).Slice(0, 200)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = dbx.Search(context.Background(), q, align.SearchOptions{MinScore: 20}, 0)
		}
	})
}

// ---- E10: archival and user space ----

// BenchmarkE10ArchivalUserSpace measures source archival plus user-space
// writes with public reads interleaved.
func BenchmarkE10ArchivalUserSpace(b *testing.B) {
	b.Run("archive-1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := warehouse.Open(32768, etl.NewWrapper(ontology.Standard()))
			if err != nil {
				b.Fatal(err)
			}
			repo := sources.NewRepo("vanishing", sources.FormatCSV, sources.CapQueryable,
				sources.Generate(81, sources.GenOptions{N: 1000}))
			if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			n, err := w.ArchiveSource("vanishing", int64(i))
			if err != nil || n != 1000 {
				b.Fatalf("archived %d, %v", n, err)
			}
		}
	})
	b.Run("user-writes", func(b *testing.B) {
		w, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			b.Fatal(err)
		}
		if err := w.CreateUserTable("alice", db.Schema{
			Table: "alice_notes",
			Columns: []db.Column{
				{Name: "id", Type: db.TString},
				{Name: "note", Type: db.TString},
			},
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sql := fmt.Sprintf(`INSERT INTO alice_notes VALUES ('n%d', 'observation %d')`, i, i)
			if _, err := w.Query(context.Background(), "alice", sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- A1: ablation — opaque UDTs vs object-type decomposition (§6.2) ----

// BenchmarkA1OpaqueVsDecomposed tests the paper's claim that object types
// (values decomposed into DBMS-native columns/rows) "turn out to be too
// limited" compared to opaque types. The decomposed variant stores each
// sequence as 60-base chunk rows and must reassemble per record to answer
// contains; the opaque variant evaluates the UDF on the packed value.
func BenchmarkA1OpaqueVsDecomposed(b *testing.B) {
	const nRecs = 500
	recs := sources.Generate(51, sources.GenOptions{N: nRecs})
	pat := recs[nRecs/2].Sequence[50:80]

	b.Run("opaque", func(b *testing.B) {
		d, err := db.OpenMemory(8192)
		if err != nil {
			b.Fatal(err)
		}
		if err := adapterInstall(d); err != nil {
			b.Fatal(err)
		}
		tbl, err := d.CreateTable(db.Schema{
			Table: "frags",
			Columns: []db.Column{
				{Name: "id", Type: db.TString},
				{Name: "fragment", Type: db.TOpaque, UDTName: "dna"},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			frag, err := gdt.NewDNA(r.ID, r.Sequence)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tbl.Insert(db.Row{r.ID, frag}); err != nil {
				b.Fatal(err)
			}
		}
		e := sqlang.NewEngine(d)
		q := fmt.Sprintf(`SELECT id FROM frags WHERE contains(fragment, '%s')`, pat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := e.Exec(q)
			if err != nil || len(r.Rows) == 0 {
				b.Fatalf("%v rows, %v", len(r.Rows), err)
			}
		}
	})

	// The decisive advantage of the opaque representation: domain-specific
	// indexing (§6.5) applies to it; the decomposed chunk rows cannot carry
	// a k-mer index at all.
	b.Run("opaque-indexed", func(b *testing.B) {
		d, err := db.OpenMemory(8192)
		if err != nil {
			b.Fatal(err)
		}
		if err := adapterInstall(d); err != nil {
			b.Fatal(err)
		}
		tbl, err := d.CreateTable(db.Schema{
			Table: "frags",
			Columns: []db.Column{
				{Name: "id", Type: db.TString},
				{Name: "fragment", Type: db.TOpaque, UDTName: "dna"},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			frag, err := gdt.NewDNA(r.ID, r.Sequence)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tbl.Insert(db.Row{r.ID, frag}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tbl.CreateGenomicIndex("fragment", 11); err != nil {
			b.Fatal(err)
		}
		e := sqlang.NewEngine(d)
		q := fmt.Sprintf(`SELECT id FROM frags WHERE contains(fragment, '%s')`, pat)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := e.Exec(q)
			if err != nil || len(r.Rows) == 0 {
				b.Fatalf("%v rows, %v", len(r.Rows), err)
			}
		}
	})

	b.Run("decomposed", func(b *testing.B) {
		d, err := db.OpenMemory(8192)
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := d.CreateTable(db.Schema{
			Table: "chunks",
			Columns: []db.Column{
				{Name: "id", Type: db.TString},
				{Name: "chunkno", Type: db.TInt},
				{Name: "chunk", Type: db.TString},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		const chunkLen = 60
		for _, r := range recs {
			for off, cn := 0, 0; off < len(r.Sequence); off, cn = off+chunkLen, cn+1 {
				end := off + chunkLen
				if end > len(r.Sequence) {
					end = len(r.Sequence)
				}
				if _, err := tbl.Insert(db.Row{r.ID, int64(cn), r.Sequence[off:end]}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Reassemble per record (chunks arrive in heap order; order by
			// chunkno), then test the pattern across chunk boundaries.
			parts := map[string][]string{}
			err := tbl.Scan(nil, func(_ storage.RID, row db.Row) bool {
				id := row[0].(string)
				cn := int(row[1].(int64))
				p := parts[id]
				for len(p) <= cn {
					p = append(p, "")
				}
				p[cn] = row[2].(string)
				parts[id] = p
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
			hits := 0
			for _, p := range parts {
				whole := strings.Join(p, "")
				if strings.Contains(whole, pat) {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

func adapterInstall(d *db.DB) error { return adapter.Install(d, genops.NewKernel()) }

// ---- E11: content-based entity matching (§5.2) ----

// BenchmarkE11EntityMatching measures resolving cross-accession aliases by
// sequence content: the exact-hash pass alone, and the full pass with
// k-mer-seeded near-identity verification over mutated copies.
func BenchmarkE11EntityMatching(b *testing.B) {
	wrap := etl.NewWrapper(ontology.Standard())
	build := func(n int, mutate bool) []etl.Entry {
		rate := 0.0
		if mutate {
			rate = 1.0
		}
		a, _ := wrap.WrapAll(sources.Generate(55, sources.GenOptions{N: n, IDPrefix: "GBK"}), "s1")
		c, _ := wrap.WrapAll(sources.Generate(55, sources.GenOptions{N: n, IDPrefix: "EMB", ErrorRate: rate}), "s2")
		return append(a, c...)
	}
	for _, n := range []int{100, 400} {
		exactEntries := build(n, false)
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, stats := etl.MatchEntities(exactEntries, etl.MatchOptions{ExactOnly: true})
				if stats.ExactMerges != n {
					b.Fatalf("merges = %+v", stats)
				}
			}
		})
		nearEntries := build(n, true)
		b.Run(fmt.Sprintf("near/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, stats := etl.MatchEntities(nearEntries, etl.MatchOptions{})
				if stats.ExactMerges+stats.NearMerges != n {
					b.Fatalf("merges = %+v", stats)
				}
			}
		})
	}
}

// ---- E12: parallel speedup ----

var e12Workers = []int{1, 2, 4, 8}

// BenchmarkE12ParallelSpeedup measures serial versus parallel execution of
// the four parallelized layers: batch alignment, k-mer index construction,
// filtered table scans, and warehouse source loading. The workers=1 run is
// the serial baseline; every worker count produces byte-identical output
// (see the TestParallelMatchesSerial guards), so the sub-benchmarks differ
// only in wall-clock time. Scaling is hardware-dependent: on a single-core
// host all worker counts converge.
func BenchmarkE12ParallelSpeedup(b *testing.B) {
	// Batch alignment: 64 independent global alignments of ~300bp pairs.
	mk := func(seed int64, n int) seq.NucSeq {
		recs := sources.Generate(seed, sources.GenOptions{N: 1, SeqLen: n})
		return seq.MustNucSeq(seq.AlphaDNA, recs[0].Sequence)
	}
	jobs := make([]align.Job, 64)
	for i := range jobs {
		jobs[i] = align.Job{A: mk(int64(300+i), 300), B: mk(int64(400+i), 300)}
	}
	for _, workers := range e12Workers {
		b.Run(fmt.Sprintf("align/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := align.GlobalAll(context.Background(), jobs, align.DefaultScoring, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// K-mer index construction: 400 documents of 1kb each.
	recs := sources.Generate(91, sources.GenOptions{N: 400, SeqLen: 1000})
	docs := make([]kmeridx.Doc, len(recs))
	for i, r := range recs {
		docs[i] = kmeridx.Doc{ID: kmeridx.DocID(i), Seq: seq.MustNucSeq(seq.AlphaDNA, r.Sequence)}
	}
	for _, workers := range e12Workers {
		b.Run(fmt.Sprintf("kmeridx-build/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := kmeridx.New(11)
				if err != nil {
					b.Fatal(err)
				}
				if err := ix.AddAll(context.Background(), docs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Filtered table scan: a UDF predicate over 2000 fragment rows.
	d, err := db.OpenMemory(32768)
	if err != nil {
		b.Fatal(err)
	}
	if err := adapterInstall(d); err != nil {
		b.Fatal(err)
	}
	tbl, err := d.CreateTable(db.Schema{
		Table: "frags",
		Columns: []db.Column{
			{Name: "id", Type: db.TString},
			{Name: "fragment", Type: db.TOpaque, UDTName: "dna"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range sources.Generate(92, sources.GenOptions{N: 2000, SeqLen: 400}) {
		frag, err := gdt.NewDNA(r.ID, r.Sequence)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.Insert(db.Row{r.ID, frag}); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range e12Workers {
		b.Run(fmt.Sprintf("scan/workers=%d", workers), func(b *testing.B) {
			e := sqlang.NewEngine(d)
			e.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := e.Exec(`SELECT id FROM frags WHERE contains(fragment, 'ACGTACGTA')`)
				if err != nil {
					b.Fatal(err)
				}
				_ = r
			}
		})
	}

	// Warehouse load: parse+wrap fan-out across four repositories.
	for _, workers := range e12Workers {
		b.Run(fmt.Sprintf("warehouse-load/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := warehouse.Open(32768, etl.NewWrapper(ontology.Standard()))
				if err != nil {
					b.Fatal(err)
				}
				w.Workers = workers
				repos := e1Repos(250)
				b.StartTimer()
				if _, err := w.InitialLoad(context.Background(), repos); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// e16DB builds the E16 join fixture: a 200-row genes dimension and a
// 4000-row frags fact table keyed by gene, with a B-tree index on frags.id
// for the point-lookup control.
func e16DB(b *testing.B) *db.DB {
	d, err := db.OpenMemory(32768)
	if err != nil {
		b.Fatal(err)
	}
	genes, err := d.CreateTable(db.Schema{
		Table: "genes",
		Columns: []db.Column{
			{Name: "gid", Type: db.TString},
			{Name: "organism", Type: db.TString},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := genes.Insert(db.Row{fmt.Sprintf("G%03d", i), fmt.Sprintf("org%d", i%10)}); err != nil {
			b.Fatal(err)
		}
	}
	frags, err := d.CreateTable(db.Schema{
		Table: "frags",
		Columns: []db.Column{
			{Name: "id", Type: db.TString},
			{Name: "gene", Type: db.TString},
			{Name: "quality", Type: db.TFloat},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		row := db.Row{fmt.Sprintf("F%04d", i), fmt.Sprintf("G%03d", i%200), float64(i%100) / 100}
		if _, err := frags.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := frags.CreateBTreeIndex("id"); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkE16 measures the cost-based planner + batched executor against
// the pre-optimizer baseline (DisableCBO + BatchSize=1: declared join
// order, per-row nested-loop rescans, row-at-a-time filters). The
// join-heavy aggregate is the headline (≥2× is the acceptance bar; the
// hash join alone removes the O(probe×build) rescan); the indexed point
// lookup is the no-regression control. Workers are pinned to 1 so the
// delta isolates planning + batching from scan parallelism. Both engines
// return identical results (see TestLegacyExecutorMatchesCBO).
func BenchmarkE16(b *testing.B) {
	d := e16DB(b)
	legacy := sqlang.NewEngine(d)
	legacy.DisableCBO = true
	legacy.BatchSize = 1
	legacy.Workers = 1
	cbo := sqlang.NewEngine(d)
	cbo.Workers = 1
	if _, err := cbo.Exec(`ANALYZE genes`); err != nil {
		b.Fatal(err)
	}
	if _, err := cbo.Exec(`ANALYZE frags`); err != nil {
		b.Fatal(err)
	}
	queries := []struct{ name, sql string }{
		{"join-agg", `SELECT genes.organism, COUNT(*) AS n FROM frags JOIN genes ON frags.gene = genes.gid WHERE frags.quality >= 0.5 GROUP BY genes.organism ORDER BY n DESC, genes.organism`},
		{"point-lookup", `SELECT quality FROM frags WHERE id = 'F2345'`},
	}
	engines := []struct {
		name string
		e    *sqlang.Engine
	}{{"legacy", legacy}, {"cbo-batch", cbo}}
	for _, q := range queries {
		for _, eng := range engines {
			b.Run(q.name+"/"+eng.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.e.Exec(q.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
