// Command genalgd is the genalg network daemon: it serves the wire
// protocol (length-prefixed JSON frames; see internal/wire) over TCP,
// executing extended-SQL statements against a WAL-backed durable engine.
//
// Every DML statement is statement-atomic and, once acknowledged, durable:
// the daemon can be killed with SIGKILL mid-burst and every acknowledged
// statement is present after restart (internal/wal replays the log and
// discards any torn tail).
//
// Shutdown: SIGTERM and SIGINT drain gracefully — in-flight statements
// finish and their acknowledgements flush, new work is refused, then the
// engine closes. -drain-timeout bounds the grace period.
//
// Usage:
//
//	genalgd -addr 127.0.0.1:7688 -data /var/lib/genalg
//
// Connect with `genalgsh -connect 127.0.0.1:7688` or the internal/wire
// client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"genalg/internal/adapter"
	"genalg/internal/db"
	"genalg/internal/genalgd"
	"genalg/internal/genops"
	"genalg/internal/obs/httpserve"
	"genalg/internal/sqlang"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7688", "TCP address to serve the wire protocol on")
	data := flag.String("data", "", "durable data directory (required); holds the write-ahead log")
	poolPages := flag.Int("pool-pages", 4096, "buffer-pool size in pages")
	maxConns := flag.Int("max-conns", 64, "concurrent session limit")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "close sessions idle longer than this")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight statements on SIGTERM")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /healthz, /readyz, /debug/pprof on this address")
	checkpointBytes := flag.Int64("checkpoint-bytes", 64<<20, "compact the WAL once it has grown by this many bytes since the last checkpoint (0 disables)")
	groupWindow := flag.Duration("group-window", 500*time.Microsecond, "WAL group-commit fsync-coalescing window (0 syncs immediately)")
	slow := flag.Duration("slow", 0, "slow-query log threshold (0 disables)")
	flag.Parse()

	if err := run(*addr, *data, *poolPages, *maxConns, *idleTimeout, *drainTimeout, *obsAddr, *checkpointBytes, *groupWindow, *slow); err != nil {
		fmt.Fprintln(os.Stderr, "genalgd:", err)
		os.Exit(1)
	}
}

func run(addr, data string, poolPages, maxConns int, idleTimeout, drainTimeout time.Duration, obsAddr string, checkpointBytes int64, groupWindow, slow time.Duration) error {
	if data == "" {
		return fmt.Errorf("-data is required (the durable directory holding the WAL)")
	}
	d, reco, err := db.OpenDurable(data, db.DurableOptions{
		PoolPages:       poolPages,
		Install:         func(d *db.DB) error { return adapter.Install(d, genops.NewKernel()) },
		GroupWindow:     groupWindow,
		CheckpointBytes: checkpointBytes,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	log.Printf("genalgd: recovered %d transactions (%d bytes valid, %d torn) from %s",
		reco.Txns, reco.ValidBytes, reco.TornBytes, data)

	engine := sqlang.NewEngine(d)
	engine.SlowQueryThreshold = slow
	srv, err := genalgd.New(genalgd.Config{
		Engine:      engine,
		MaxConns:    maxConns,
		IdleTimeout: idleTimeout,
	})
	if err != nil {
		return err
	}

	var obsSrv *httpserve.Server
	if obsAddr != "" {
		obsSrv, err = httpserve.Start(obsAddr, httpserve.Options{Readiness: readiness(srv, d)})
		if err != nil {
			return err
		}
		log.Printf("genalgd: observability on http://%s", obsSrv.Addr())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("genalgd: serving on %s", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigc:
		log.Printf("genalgd: %v received, draining (timeout %s)", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("genalgd: drain incomplete: %v", err)
		}
		if obsSrv != nil {
			shCtx, shCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer shCancel()
			_ = obsSrv.Shutdown(shCtx)
		}
		log.Printf("genalgd: drained, shutting down")
		return <-serveErr
	}
}

// readiness lists the /readyz probes: the daemon is not ready while it
// drains, or while the last auto-checkpoint failure stands (the log then
// grows without bound and may be unable to accept writes).
func readiness(srv *genalgd.Server, d *db.DB) []httpserve.Check {
	return []httpserve.Check{
		{Name: "genalgd.draining", Probe: func() error {
			if srv.Draining() {
				return fmt.Errorf("draining")
			}
			return nil
		}},
		{Name: "db.checkpoint", Probe: d.CheckpointErr},
	}
}
