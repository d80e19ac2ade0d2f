// Command benchtab regenerates the paper's evaluation artifacts: Table 1
// (the capability matrix, with the GenAlg column validated live) and the
// measured experiments E1-E4 and E11 backing the paper's qualitative performance
// claims. The full experiment set, including micro-variants, lives in the
// repository's Go benchmarks (go test -bench=.); benchtab prints the
// human-readable tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchtab [-only table1|fig2|e1|e2|e3|e4|e11|e12] [-bench-json DIR]
//
// With -bench-json DIR, the measured experiments additionally write
// machine-readable BENCH_<experiment>.json snapshots into DIR (currently
// e12), so the repository can track the perf trajectory in files
// rather than only in EXPERIMENTS.md prose.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"genalg/internal/align"
	"genalg/internal/capability"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/kmeridx"
	"genalg/internal/mediator"
	"genalg/internal/obs"
	"genalg/internal/obs/httpserve"
	"genalg/internal/ontology"
	"genalg/internal/seq"
	"genalg/internal/sources"
	"genalg/internal/warehouse"
)

func main() {
	only := flag.String("only", "", "run a single experiment: table1, fig2, e1, e2, e3, e4, e11, e12")
	flag.BoolVar(&quick, "quick", false, "shrink fixtures for CI smoke runs")
	flag.StringVar(&benchJSONDir, "bench-json", "", "write BENCH_<experiment>.json snapshots into this directory")
	metrics := flag.Bool("metrics", false, "dump the metrics registry after the experiments")
	obsAddr := flag.String("obs-addr", "", "serve /metrics and /debug/pprof on this address while the experiments run")
	flag.Parse()
	if *obsAddr != "" {
		srv, err := httpserve.Start(*obsAddr, httpserve.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s\n", srv.Addr())
	}
	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("table1", table1)
	run("fig2", fig2)
	run("e1", e1WarehouseVsMediator)
	run("e2", e2PackedVsPointer)
	run("e3", e3ViewMaintenance)
	run("e4", e4IndexVsScan)
	run("e11", e11EntityMatching)
	run("e12", e12ParallelSpeedup)
	if *metrics {
		fmt.Println("==== metrics ====")
		if err := obs.Default.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab: metrics:", err)
			os.Exit(1)
		}
	}
}

// e12ParallelSpeedup measures serial versus parallel execution of the four
// parallelized layers (batch alignment, k-mer index construction, filtered
// table scans, warehouse loading). Results are byte-identical at every
// worker count; only wall-clock time varies, and scaling depends on the
// cores available (GOMAXPROCS).
// quick shrinks the E12 fixtures so a CI smoke job exercises every layer
// without paying benchmark-sized wall clock.
var quick bool

// scaled divides n by 4 under -quick (minimum 8).
func scaled(n int) int {
	if !quick {
		return n
	}
	if n/4 < 8 {
		return 8
	}
	return n / 4
}

func e12ParallelSpeedup() error {
	reps := 3
	if quick {
		reps = 1
	}
	mk := func(seed int64, n int) seq.NucSeq {
		recs := sources.Generate(seed, sources.GenOptions{N: 1, SeqLen: n})
		return seq.MustNucSeq(seq.AlphaDNA, recs[0].Sequence)
	}

	// Batch alignment fixture: 64 independent ~300bp global alignments.
	jobs := make([]align.Job, scaled(64))
	for i := range jobs {
		jobs[i] = align.Job{A: mk(int64(300+i), 300), B: mk(int64(400+i), 300)}
	}

	// Index-build fixture: 400 documents of 1kb.
	idxRecs := sources.Generate(91, sources.GenOptions{N: scaled(400), SeqLen: 1000})
	docs := make([]kmeridx.Doc, len(idxRecs))
	for i, r := range idxRecs {
		docs[i] = kmeridx.Doc{ID: kmeridx.DocID(i), Seq: seq.MustNucSeq(seq.AlphaDNA, r.Sequence)}
	}

	// Scan fixture: a loaded warehouse with 2000 fragments; the query is a
	// full-table UDF filter (no genomic index), which partitions above the
	// engine's row threshold.
	wScan, err := warehouse.Open(65536, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		return err
	}
	scanRepo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(92, sources.GenOptions{N: scaled(2000), SeqLen: 400}))
	if _, err := wScan.InitialLoad(context.Background(), []*sources.Repo{scanRepo}); err != nil {
		return err
	}
	pat := scanRepo.Records()[len(scanRepo.Records())/2].Sequence[40:72]
	scanQuery := fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s')`, pat)

	// Load fixture: pre-generated records for four repositories, so each
	// run measures parse+wrap+integrate only.
	loadRecs := make([][]sources.Record, 4)
	for i := range loadRecs {
		loadRecs[i] = sources.Generate(int64(11+i), sources.GenOptions{N: scaled(250), IDPrefix: string(rune('A' + i))})
	}
	formats := []sources.Format{sources.FormatCSV, sources.FormatCSV, sources.FormatGenBank, sources.FormatFASTA}

	variants := []struct {
		name string
		run  func(workers int) error
	}{
		{"align-batch", func(workers int) error {
			_, err := align.GlobalAll(context.Background(), jobs, align.DefaultScoring, workers)
			return err
		}},
		{"kmeridx-build", func(workers int) error {
			ix, err := kmeridx.New(11)
			if err != nil {
				return err
			}
			return ix.AddAll(context.Background(), docs, workers)
		}},
		{"table-scan", func(workers int) error {
			wScan.Engine.Workers = workers
			_, err := wScan.Query(context.Background(), "bench", scanQuery)
			return err
		}},
		{"warehouse-load", func(workers int) error {
			w, err := warehouse.Open(32768, etl.NewWrapper(ontology.Standard()))
			if err != nil {
				return err
			}
			w.Workers = workers
			repos := make([]*sources.Repo, len(loadRecs))
			for i, recs := range loadRecs {
				repos[i] = sources.NewRepo(fmt.Sprintf("s%d", i+1), formats[i], sources.CapQueryable, recs)
			}
			_, err = w.InitialLoad(context.Background(), repos)
			return err
		}},
	}

	var results []BenchResult
	fmt.Printf("%-16s %8s %14s %10s\n", "layer", "workers", "time", "speedup")
	for _, v := range variants {
		var serial time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			start := time.Now()
			for r := 0; r < reps; r++ {
				if err := v.run(workers); err != nil {
					return err
				}
			}
			elapsed := time.Since(start) / time.Duration(reps)
			if workers == 1 {
				serial = elapsed
			}
			speedup := float64(serial) / float64(elapsed)
			fmt.Printf("%-16s %8d %14v %9.2fx\n", v.name, workers,
				elapsed.Round(time.Microsecond), speedup)
			results = append(results, BenchResult{
				Name:    v.name,
				Workers: workers,
				Nanos:   elapsed.Nanoseconds(),
				Speedup: speedup,
			})
		}
	}
	fmt.Println("speedup is relative to workers=1 on the same host; parallel and serial")
	fmt.Println("runs produce byte-identical results (see TestParallelMatchesSerial).")
	return writeBenchJSON("e12", results)
}

// e11EntityMatching measures content-based cross-accession entity matching
// (the Section 5.2 semantic-heterogeneity experiment).
func e11EntityMatching() error {
	wrap := etl.NewWrapper(ontology.Standard())
	build := func(n int, mutate bool) []etl.Entry {
		rate := 0.0
		if mutate {
			rate = 1.0
		}
		a, _ := wrap.WrapAll(sources.Generate(55, sources.GenOptions{N: n, IDPrefix: "GBK"}), "genbank1")
		b, _ := wrap.WrapAll(sources.Generate(55, sources.GenOptions{N: n, IDPrefix: "EMB", ErrorRate: rate}), "embl1")
		return append(a, b...)
	}
	fmt.Printf("%8s %10s %12s %8s %8s %10s\n", "records", "mode", "time", "exact", "near", "entities")
	for _, n := range []int{100, 400} {
		for _, mutate := range []bool{false, true} {
			mode := "identical"
			if mutate {
				mode = "mutated"
			}
			entries := build(n, mutate)
			start := time.Now()
			matched, _, mstats := etl.MatchEntities(entries, etl.MatchOptions{})
			merged, _ := etl.Integrate(matched)
			fmt.Printf("%8d %10s %12v %8d %8d %10d\n", n, mode,
				time.Since(start).Round(time.Millisecond),
				mstats.ExactMerges, mstats.NearMerges, len(merged))
		}
	}
	fmt.Println("shape: 2N cross-accession observations fold into N entities in both modes;")
	fmt.Println("exact hashing handles identical twins, k-mer-seeded alignment the mutated ones.")
	return nil
}

// table1 renders the capability matrix and validates the GenAlg column.
func table1() error {
	m := capability.BuildMatrix()
	fmt.Print(m.Render())
	failed, errs := capability.Validate(capability.NewChecks())
	if len(failed) > 0 {
		for _, e := range errs {
			fmt.Println("  FAILED:", e)
		}
		return fmt.Errorf("%d GenAlg claims unvalidated", len(failed))
	}
	fmt.Println("\nGenAlg column: all 15 claims validated against live features.")
	for _, name := range m.Names() {
		score, _ := m.Score(name)
		fmt.Printf("  score %-14s %2d / 30\n", name, score)
	}
	return nil
}

// fig2 measures every change-detection cell of Figure 2.
func fig2() error {
	type cell struct {
		name   string
		format sources.Format
		cap    sources.Capability
	}
	cells := []cell{
		{"trigger/relational", sources.FormatCSV, sources.CapActive},
		{"inspect-log/flat", sources.FormatGenBank, sources.CapLogged},
		{"snapshot-diff/relational", sources.FormatCSV, sources.CapQueryable},
		{"lcs-diff/flat(genbank)", sources.FormatGenBank, sources.CapNonQueryable},
		{"lcs-diff/flat(fasta)", sources.FormatFASTA, sources.CapNonQueryable},
		{"tree-diff/hierarchical", sources.FormatACeDB, sources.CapNonQueryable},
	}
	fmt.Printf("%-26s %8s %10s %12s %8s\n", "cell", "records", "mutations", "detect-time", "deltas")
	for _, c := range cells {
		for _, n := range []int{1000, 5000} {
			repo := sources.NewRepo("r", c.format, c.cap, sources.Generate(9, sources.GenOptions{N: n}))
			det, err := etl.ForRepo(repo)
			if err != nil {
				return err
			}
			if _, err := det.Poll(context.Background()); err != nil {
				return err
			}
			muts := repo.ApplyRandomUpdates(99, n/100) // 1% churn
			start := time.Now()
			deltas, err := det.Poll(context.Background())
			if err != nil {
				return err
			}
			fmt.Printf("%-26s %8d %10d %12v %8d\n", c.name, n, len(muts),
				time.Since(start).Round(time.Microsecond), len(deltas))
			if tm, ok := det.(*etl.TriggerMonitor); ok {
				tm.Close()
			}
		}
	}
	return nil
}

// e1WarehouseVsMediator measures the paper's central performance claim.
func e1WarehouseVsMediator() error {
	const nRecords = 300
	latency := 2 * time.Millisecond
	mkRepos := func() []*sources.Repo {
		return []*sources.Repo{
			sources.NewRepo("s1", sources.FormatCSV, sources.CapQueryable,
				sources.Generate(11, sources.GenOptions{N: nRecords, IDPrefix: "A"})),
			sources.NewRepo("s2", sources.FormatCSV, sources.CapQueryable,
				sources.Generate(12, sources.GenOptions{N: nRecords, IDPrefix: "B"})),
			sources.NewRepo("s3", sources.FormatGenBank, sources.CapNonQueryable,
				sources.Generate(13, sources.GenOptions{N: nRecords, IDPrefix: "C"})),
			sources.NewRepo("s4", sources.FormatFASTA, sources.CapNonQueryable,
				sources.Generate(14, sources.GenOptions{N: nRecords, IDPrefix: "D"})),
		}
	}
	patterns := []string{"ACGTACG", "GGGTTTA", "TTTTCCC", "ATTGCCA"}

	fmt.Printf("4 sources x %d records, %v simulated latency\n", nRecords, latency)
	fmt.Printf("%8s %18s %18s %10s\n", "queries", "mediator", "warehouse+load", "speedup")
	for _, nq := range []int{1, 4, 16, 64} {
		// Mediator: every query pays remote costs.
		var medSrcs []mediator.Source
		for _, r := range mkRepos() {
			medSrcs = append(medSrcs, sources.NewRemote(r, latency, 0))
		}
		med := mediator.New(medSrcs...)
		start := time.Now()
		for i := 0; i < nq; i++ {
			if _, err := med.FindContaining(patterns[i%len(patterns)]); err != nil {
				return err
			}
		}
		medTime := time.Since(start)

		// Warehouse: one load, then local queries.
		w, err := warehouse.Open(8192, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			return err
		}
		start = time.Now()
		repos := mkRepos()
		// Loading pays the remote snapshot once per source.
		for _, r := range repos {
			remote := sources.NewRemote(r, latency, 0)
			_ = remote.Snapshot() // simulate the paid transfer
		}
		if _, err := w.InitialLoad(context.Background(), repos); err != nil {
			return err
		}
		for i := 0; i < nq; i++ {
			q := fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s')`, patterns[i%len(patterns)])
			if _, err := w.Query(context.Background(), "bench", q); err != nil {
				return err
			}
		}
		whTime := time.Since(start)
		fmt.Printf("%8d %18v %18v %9.1fx\n", nq,
			medTime.Round(time.Millisecond), whTime.Round(time.Millisecond),
			float64(medTime)/float64(whTime))
	}
	return nil
}

// pointerDNA is the strawman representation the paper argues against:
// per-base heap nodes linked by pointers.
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

// e2PackedVsPointer measures the paper's Section 4.3 representation claim.
func e2PackedVsPointer() error {
	fmt.Printf("%10s %16s %16s %14s %14s\n", "length", "packed-serialize", "pointer-serialize", "packed-bytes", "pointer-bytes")
	for _, n := range []int{1000, 10000, 100000} {
		recs := sources.Generate(5, sources.GenOptions{N: 1, SeqLen: n})
		d := gdt.MustDNA("x", recs[0].Sequence)
		iterations := 2000000 / n
		if iterations < 10 {
			iterations = 10
		}
		start := time.Now()
		var packedLen int
		for i := 0; i < iterations; i++ {
			packedLen = len(d.Pack())
		}
		packedTime := time.Since(start) / time.Duration(iterations)

		ptr := buildPointerDNA(d.Seq)
		start = time.Now()
		var ptrLen int
		for i := 0; i < iterations; i++ {
			ptrLen = len(ptr.serialize())
		}
		ptrTime := time.Since(start) / time.Duration(iterations)
		// Pointer in-memory footprint: ~24 bytes per node (value + pointer
		// + allocator overhead) vs n/4 for 2-bit packing.
		fmt.Printf("%10d %16v %16v %14d %14d\n", n, packedTime, ptrTime, packedLen, ptrLen*24)
	}
	return nil
}

// e3ViewMaintenance measures incremental maintenance vs full reload.
func e3ViewMaintenance() error {
	const n = 2000
	fmt.Printf("source: %d records\n", n)
	fmt.Printf("%8s %8s %16s %16s %10s\n", "churn", "deltas", "incremental", "full-reload", "speedup")
	for _, churn := range []int{2, 20, 200} {
		// Incremental.
		wInc, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			return err
		}
		repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(21, sources.GenOptions{N: n}))
		if _, err := wInc.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
			return err
		}
		det, err := etl.NewSnapshotDiffMonitor(context.Background(), repo)
		if err != nil {
			return err
		}
		repo.ApplyRandomUpdates(31, churn)
		deltas, err := det.Poll(context.Background())
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := wInc.ApplyDeltas(context.Background(), deltas); err != nil {
			return err
		}
		incTime := time.Since(start)

		// Full reload of an identical warehouse.
		wFull, err := warehouse.Open(16384, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			return err
		}
		repo2 := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(21, sources.GenOptions{N: n}))
		if _, err := wFull.InitialLoad(context.Background(), []*sources.Repo{repo2}); err != nil {
			return err
		}
		repo2.ApplyRandomUpdates(31, churn)
		start = time.Now()
		if err := wFull.FullReload([]*sources.Repo{repo2}); err != nil {
			return err
		}
		fullTime := time.Since(start)
		fmt.Printf("%7.1f%% %8d %16v %16v %9.1fx\n",
			100*float64(churn)/n, len(deltas),
			incTime.Round(time.Microsecond), fullTime.Round(time.Microsecond),
			float64(fullTime)/float64(incTime))
	}
	return nil
}

// e4IndexVsScan measures the genomic index against the scan fallback.
func e4IndexVsScan() error {
	fmt.Printf("%8s %12s %12s %10s\n", "corpus", "scan", "kmer-index", "speedup")
	for _, n := range []int{200, 1000, 5000} {
		w, err := warehouse.Open(32768, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			return err
		}
		repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(41, sources.GenOptions{N: n}))
		if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
			return err
		}
		// The pattern is drawn from a real record so both paths do work.
		pat := repo.Records()[n/2].Sequence[40:72]
		q := fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s')`, pat)
		const reps = 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := w.Query(context.Background(), "bench", q); err != nil {
				return err
			}
		}
		scanTime := time.Since(start) / reps

		if err := w.DB.CreateGenomicIndexOn(warehouse.TableFragments, "fragment", 11); err != nil {
			return err
		}
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := w.Query(context.Background(), "bench", q); err != nil {
				return err
			}
		}
		idxTime := time.Since(start) / reps
		fmt.Printf("%8d %12v %12v %9.1fx\n", n,
			scanTime.Round(time.Microsecond), idxTime.Round(time.Microsecond),
			float64(scanTime)/float64(idxTime))
	}
	return nil
}
