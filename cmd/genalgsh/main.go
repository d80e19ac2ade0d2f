// Command genalgsh is the shell of the Genomics Algebra: it boots a
// Unifying Database from the synthetic repositories, then evaluates BiQL
// queries, extended-SQL statements, or raw algebra terms.
//
// Usage:
//
//	genalgsh [-records N] [-noisy] [-lang biql|sql|term] [-user NAME] QUERY...
//	genalgsh -catalog        # list sorts, operations, and tables
//	genalgsh -connect ADDR   # client mode: run statements on a genalgd server
//
// Examples:
//
//	genalgsh 'FIND genes SHOW id, protein TOP 3'
//	genalgsh -lang sql 'SELECT id FROM fragments WHERE contains(fragment, ''ACGTACGT'')'
//	genalgsh -lang term -gene SYN000000 'translate(splice(transcribe(g)))'
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"genalg/internal/biql"
	"genalg/internal/core"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/genops"
	"genalg/internal/obs"
	"genalg/internal/obs/httpserve"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/trace"
	"genalg/internal/warehouse"
)

func main() {
	records := flag.Int("records", 60, "records per synthetic repository")
	noisy := flag.Bool("noisy", true, "inject errors into the second repository")
	lang := flag.String("lang", "biql", "query language: biql, sql, or term")
	user := flag.String("user", "biologist", "user name for space enforcement")
	geneID := flag.String("gene", "", "gene accession bound to variable g for -lang term")
	catalog := flag.Bool("catalog", false, "print sorts, operations, and tables, then exit")
	slow := flag.Duration("slow", 0, "slow-query log threshold (0 disables), e.g. 50ms")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /traces, /healthz, /readyz, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	traceSpec := flag.String("trace", "", "enable statement tracing: always, rate=F, or slow=DUR")
	connect := flag.String("connect", "", "client mode: execute statements on a genalgd server at this address instead of in-process")
	flag.Parse()

	if *connect != "" {
		if err := runConnect(*connect, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "genalgsh:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*records, *noisy, *lang, *user, *geneID, *catalog, *slow, *obsAddr, *traceSpec, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "genalgsh:", err)
		os.Exit(1)
	}
}

func run(records int, noisy bool, lang, user, geneID string, catalog bool, slow time.Duration, obsAddr, traceSpec string, queries []string) error {
	tracer := trace.New(trace.Sampling{Mode: trace.SampleAlways}, trace.DefaultCapacity)
	tracer.SetEnabled(false)
	if traceSpec != "" {
		s, err := trace.ParseSampling(traceSpec)
		if err != nil {
			return err
		}
		tracer.SetSampling(s)
		tracer.SetEnabled(true)
	}
	ctx := trace.WithTracer(context.Background(), tracer)

	w, err := warehouse.Open(4096, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		return err
	}
	w.Engine.SlowQueryThreshold = slow

	var loaded atomic.Bool
	if obsAddr != "" {
		srv, err := httpserve.Start(obsAddr, httpserve.Options{
			Tracer: tracer,
			Readiness: []httpserve.Check{{
				Name: "warehouse",
				Probe: func() error {
					if !loaded.Load() {
						return fmt.Errorf("initial load not finished")
					}
					return nil
				},
			}},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s\n", srv.Addr())
	}
	rate := 0.0
	if noisy {
		rate = 0.35
	}
	repos := []*sources.Repo{
		sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
			sources.Generate(1, sources.GenOptions{N: records})),
		sources.NewRepo("embl1", sources.FormatFASTA, sources.CapQueryable,
			sources.Generate(1, sources.GenOptions{N: records, ErrorRate: rate})),
	}
	stats, err := w.InitialLoad(ctx, repos)
	if err != nil {
		return err
	}
	loaded.Store(true)
	fmt.Printf("loaded %d entities from %d observations (%d duplicates removed, %d conflicts retained)\n\n",
		stats.Entities, stats.Observations, stats.Duplicates, stats.Conflicts)

	if catalog {
		printCatalog(w)
		return nil
	}
	if len(queries) == 0 {
		return repl(ctx, w, tracer, lang, user, geneID)
	}
	for _, q := range queries {
		if err := runOne(ctx, w, lang, user, geneID, q); err != nil {
			return err
		}
	}
	return nil
}

// repl reads one query per line from stdin until EOF. Lines starting with
// "\" switch settings or inspect state: \lang biql|sql|term, \user NAME,
// \catalog, \metrics (registry snapshot), \slowlog (slow-query log),
// \trace on|off|show (statement tracing).
func repl(ctx context.Context, w *warehouse.Warehouse, tracer *trace.Tracer, lang, user, geneID string) error {
	fmt.Printf("genalgsh interactive mode (lang=%s user=%s); one query per line, \\q quits\n", lang, user)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Printf("%s> ", lang)
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == `\quit`:
			return nil
		case line == `\catalog`:
			printCatalog(w)
			continue
		case line == `\metrics`:
			if err := obs.Default.WriteText(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
			continue
		case line == `\slowlog`:
			printSlowLog(w)
			continue
		case line == `\trace` || strings.HasPrefix(line, `\trace `):
			handleTrace(tracer, strings.TrimSpace(strings.TrimPrefix(line, `\trace`)))
			continue
		case strings.HasPrefix(line, `\lang `):
			next := strings.TrimSpace(strings.TrimPrefix(line, `\lang `))
			switch next {
			case "biql", "sql", "term":
				lang = next
				fmt.Println("language:", lang)
			default:
				fmt.Println("unknown language (biql, sql, term)")
			}
			continue
		case strings.HasPrefix(line, `\user `):
			user = strings.TrimSpace(strings.TrimPrefix(line, `\user `))
			fmt.Println("user:", user)
			continue
		case strings.HasPrefix(line, `\gene `):
			geneID = strings.TrimSpace(strings.TrimPrefix(line, `\gene `))
			fmt.Println("gene binding:", geneID)
			continue
		}
		if err := runOne(ctx, w, lang, user, geneID, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// handleTrace implements \trace: "on [always|rate=F|slow=DUR]" enables
// tracing (optionally changing the sampling), "off" disables it, "show"
// renders the stored span trees with the keep/drop counters.
func handleTrace(tracer *trace.Tracer, args string) {
	fields := strings.Fields(args)
	cmd := ""
	if len(fields) > 0 {
		cmd = fields[0]
	}
	switch cmd {
	case "on":
		if len(fields) > 1 {
			s, err := trace.ParseSampling(fields[1])
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			tracer.SetSampling(s)
		}
		tracer.SetEnabled(true)
		fmt.Printf("tracing on (%s)\n", tracer.Sampling())
	case "off":
		tracer.SetEnabled(false)
		fmt.Println("tracing off")
	case "show":
		started, kept, dropped := tracer.Stats()
		fmt.Printf("tracing %s (%s): %d started, %d kept, %d dropped\n",
			map[bool]string{true: "on", false: "off"}[tracer.Enabled()],
			tracer.Sampling(), started, kept, dropped)
		if err := tracer.WriteTrees(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	default:
		fmt.Println(`usage: \trace on [always|rate=F|slow=DUR] | off | show`)
	}
}

func printSlowLog(w *warehouse.Warehouse) {
	entries := w.Engine.SlowQueries()
	if w.Engine.SlowQueryThreshold <= 0 {
		fmt.Println("slow-query log disabled; start with -slow DURATION")
		return
	}
	if len(entries) == 0 {
		fmt.Printf("no statements slower than %s\n", w.Engine.SlowQueryThreshold)
		return
	}
	for _, q := range entries {
		id := q.TraceID
		if id == "" {
			id = "-"
		}
		fmt.Printf("%-12s %-16s %s\n", q.Duration.Round(time.Microsecond), id, q.SQL)
	}
}

func printCatalog(w *warehouse.Warehouse) {
	fmt.Println("sorts:")
	for _, s := range w.Kernel.Sig.Sorts() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\noperations:")
	for _, op := range w.Kernel.Sig.Ops() {
		fmt.Printf("  %-60s %s\n", op.String(), op.Doc)
	}
	fmt.Println("\npublic tables:")
	for _, t := range warehouse.PublicTables() {
		tbl, ok := w.DB.Table(t)
		if !ok {
			// Genome, chromosome and cross-reference tables appear once
			// their loads first run.
			fmt.Printf("  %-16s not created\n", t)
			continue
		}
		fmt.Printf("  %-16s %d rows\n", t, tbl.RowCount())
	}
}

func runOne(ctx context.Context, w *warehouse.Warehouse, lang, user, geneID, query string) error {
	switch lang {
	case "biql":
		q, err := biql.Parse(query)
		if err != nil {
			return err
		}
		sql, err := q.ToSQL()
		if err != nil {
			return err
		}
		fmt.Printf("-- BiQL: %s\n-- SQL:  %s\n", query, sql)
		r, err := w.Query(ctx, user, sql)
		if err != nil {
			return err
		}
		fmt.Println(biql.Render(q, r.Cols, r.Rows))
	case "sql":
		r, err := w.Query(ctx, user, query)
		if err != nil {
			return err
		}
		if r.Plan() != "" {
			fmt.Printf("-- plan:\n%s", r.Plan())
		}
		q := &biql.Query{Format: biql.FormatTable}
		fmt.Println(biql.Render(q, r.Cols, r.Rows))
	case "term":
		if geneID == "" {
			return fmt.Errorf("-lang term needs -gene ACCESSION to bind variable g")
		}
		r, err := w.Query(ctx, user, fmt.Sprintf("SELECT gene FROM genes WHERE id = '%s'", geneID))
		if err != nil {
			return err
		}
		if len(r.Rows) == 0 {
			return fmt.Errorf("no gene %s in the warehouse", geneID)
		}
		g := r.Rows[0][0].(gdt.Gene)
		term, err := core.ParseTerm(w.Kernel.Sig, query, map[string]core.Sort{"g": genops.SortGene})
		if err != nil {
			return err
		}
		v, err := w.Kernel.Alg.Eval(term, core.Env{"g": g})
		if err != nil {
			return err
		}
		fmt.Printf("%s : %s\n", term, term.Sort())
		if gv, ok := v.(gdt.Value); ok {
			fmt.Print(gdt.Describe(gv))
		} else {
			fmt.Printf("= %v\n", v)
		}
	default:
		return fmt.Errorf("unknown language %q", lang)
	}
	return nil
}
