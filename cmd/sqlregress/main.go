// Command sqlregress drives the sqlang regression harness.
//
//	sqlregress check   — render the corpus and diff against committed baselines
//	sqlregress update  — re-bless the baselines from current engine output
//	sqlregress fuzz    — differential-fuzz the executor matrix, shrink any divergence
//
// check exits non-zero when any baseline diverges; fuzz exits non-zero
// when a divergence between executors is found (the shrunk reproducer
// is printed and, with -out, written as a corpus-ready .sql file).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"genalg/internal/sqlang/regress"
)

const defaultCorpus = "internal/sqlang/regress/testdata/corpus"
const defaultBaselines = "internal/sqlang/regress/testdata/baselines"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = runCheck(os.Args[2:])
	case "update":
		err = runUpdate(os.Args[2:])
	case "fuzz":
		err = runFuzz(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "sqlregress: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlregress: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  sqlregress check  [-corpus DIR] [-baselines DIR]
  sqlregress update [-corpus DIR] [-baselines DIR]
  sqlregress fuzz   [-seed N] [-n N] [-duration D] [-max K] [-out DIR] [-inject joinkey]
`)
}

func harnessFlags(fs *flag.FlagSet) (corpus, baselines *string) {
	corpus = fs.String("corpus", defaultCorpus, "corpus directory (*.sql)")
	baselines = fs.String("baselines", defaultBaselines, "baseline directory (*.golden)")
	return
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	corpus, baselines := harnessFlags(fs)
	fs.Parse(args)
	h := &regress.Harness{CorpusDir: *corpus, BaselineDir: *baselines}
	diffs, err := h.Check()
	if err != nil {
		return err
	}
	if len(diffs) == 0 {
		fmt.Println("sqlregress: baselines clean")
		return nil
	}
	for _, d := range diffs {
		fmt.Print(d)
	}
	return fmt.Errorf("%d baseline diff(s); run `sqlregress update` to re-bless intended changes", len(diffs))
}

func runUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	corpus, baselines := harnessFlags(fs)
	fs.Parse(args)
	h := &regress.Harness{CorpusDir: *corpus, BaselineDir: *baselines}
	n, err := h.Update()
	if err != nil {
		return err
	}
	fmt.Printf("sqlregress: %d baseline(s) written to %s\n", n, *baselines)
	return nil
}

func runFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generator seed (same seed = same statement stream)")
	n := fs.Int("n", 0, "statement budget (0 = use -duration, or 1000 if neither set)")
	dur := fs.Duration("duration", 0, "wall-clock budget (0 = use -n)")
	max := fs.Int("max", 1, "stop after this many divergences")
	out := fs.String("out", "", "write corpus-ready reproducers to this directory")
	inject := fs.String("inject", "", "fault injection: 'joinkey' breaks hash-join key unification on the reference engine (self-test)")
	fs.Parse(args)

	d, runners, err := regress.NewFuzzEnv()
	if err != nil {
		return err
	}
	defer d.Close()
	switch *inject {
	case "":
	case "joinkey":
		runners[0].Eng.UnsafeBreakJoinKeys = true
		fmt.Println("sqlregress: fault injected: reference engine hash-join key unification disabled")
	default:
		return fmt.Errorf("unknown -inject %q (only 'joinkey')", *inject)
	}
	res, err := regress.Fuzz(d, runners, regress.FuzzOptions{
		Seed:           *seed,
		N:              *n,
		Duration:       *dur,
		MaxDivergences: *max,
		Out:            *out,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("sqlregress: %d statements in %v (%.0f stmt/s), %d exec errors, %d divergence(s)\n",
		res.Statements, res.Elapsed.Round(time.Millisecond),
		float64(res.Statements)/res.Elapsed.Seconds(), res.ExecErrors, len(res.Divergences))
	fmt.Printf("sqlregress: seed %d: %d plan-cache hits\n", *seed, res.PlanCacheHits)
	for _, fd := range res.Divergences {
		fmt.Printf("\n%s\nminimal reproducer:\n  %s;\n", fd.Divergence.String(), fd.Minimal)
		if fd.File != "" {
			fmt.Printf("reproducer file: %s\n", fd.File)
		}
	}
	if len(res.Divergences) > 0 {
		return fmt.Errorf("found %d executor divergence(s)", len(res.Divergences))
	}
	return nil
}
