// Command perfbench is the repository benchmark. It starts the real
// genalgd daemon as a child process, loads a seeded fixture over the wire
// protocol, and drives one closed-loop workload against it; with -trace 1
// it instead produces the per-layer latency ledger from a traced
// in-process run.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload point_lookup --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"genalg/internal/benchmeta"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark emits, end-to-end and per-layer.
var units = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"p50_ms":        "ms",
	"p95_ms":        "ms",
	"cpu_ms_per_op": "ms",
	"rss_mb":        "MiB",
	"ok_ratio":      "ratio",
	"recovery_s":    "s",
	"space_amp":     "ratio",
}

func main() {
	workload := flag.String("workload", "", "workload: point_lookup, genomic_search, analytic_scan or ingest")
	seed := flag.Int64("seed", 1, "seed for the fixture and the statement streams")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced in-process ledger and reports per-layer metrics")
	bin := flag.String("genalgd", filepath.Join(".bench_build", "genalgd"), "genalgd binary")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "runs"), "directory for data, logs and span output")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced == 1, *bin, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, bin, workDir string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("genalgd binary: %w", err)
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-seed%d-pid%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fx := NewFixture(seed)
	e := &runEnv{w: w, seed: seed, seconds: seconds, bin: bin, dir: dir, fx: fx, setup: fx.SetupStatements()}
	printSettings(e, traced)

	metrics := map[string]float64{}
	var err error
	if traced {
		metrics, err = e.runLedger(workDir)
	} else {
		var res *e2eResult
		res, err = e.runE2E()
		if res != nil {
			metrics = res.metrics
			for _, n := range res.notes {
				fmt.Println(n)
			}
			fmt.Printf("latency samples: %d (behind p50_ms and p95_ms)\n", res.samples)
		}
	}
	if err != nil {
		return err
	}
	out := result{Metrics: map[string]metric{}, Attempted: e.t.attempted, Failed: e.t.failed}
	out.Correct = e.t.failed == 0
	for _, k := range sortedKeys(metrics) {
		m := metric{Value: metrics[k], Unit: unitOf(k)}
		out.Metrics[k] = m
		fmt.Printf("%-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if e.t.firstErr != nil {
		fmt.Println("first failure:", e.t.firstErr)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// unitOf returns a metric's unit: listed, or derived from its suffix.
func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, ".n"), strings.HasPrefix(name, "wal.checkpoints"):
		return "count"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_per_op"):
		return "1/op"
	}
	return "ratio"
}

// printSettings records the run's shape ahead of the results.
func printSettings(e *runEnv, traced bool) {
	settings := map[string]any{
		"workload":         e.w.Name,
		"seed":             e.seed,
		"seconds":          e.seconds,
		"trace":            traced,
		"connections":      e.w.Conns,
		"pool_pages":       e.w.PoolPages,
		"group_window":     groupWindowFlag(),
		"checkpoint_bytes": checkpointBytes,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           benchmeta.Commit(),
		"data_fs":          fsType(e.dir),
		"fixture": map[string]int{
			"frags": numFrags, "reads": numReads, "groups": numGroups, "kmer_k": kmerK,
		},
	}
	b, _ := json.Marshal(settings)
	fmt.Println("settings:", string(b))
}
