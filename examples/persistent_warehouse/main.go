// Persistent_warehouse demonstrates the durable Unifying Database: open a
// WAL-backed warehouse, load it and annotate it in user space, then close
// it without any save step. A second session reopens the directory, finds
// every acknowledged statement by replaying the log, and continues
// maintenance — the paper's long-term vision of a database biologists
// keep rather than rebuild, with no save step to forget.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/warehouse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "genalg-warehouse-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println("warehouse directory:", dir)
	wrapper := etl.NewWrapper(ontology.Standard())
	repo := sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapLogged,
		sources.Generate(3, sources.GenOptions{N: 50}))
	if err := session1(dir, wrapper, repo); err != nil {
		return err
	}
	return session2(dir, wrapper, repo)
}

// session1 creates, loads and annotates the warehouse, then closes it,
// which releases the log's lock for the next session. There is no save
// step: each statement was durable when it returned.
func session1(dir string, wrapper *etl.Wrapper, repo *sources.Repo) (err error) {
	w, err := warehouse.OpenDurable(dir, 1024, wrapper)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	stats, err := w.InitialLoad(context.Background(), []*sources.Repo{repo})
	if err != nil {
		return err
	}
	fmt.Printf("session 1: loaded %d entities\n", stats.Entities)
	err = w.CreateUserTable("biologist", db.Schema{
		Table: "lab_notes",
		Columns: []db.Column{
			{Name: "target", Type: db.TString},
			{Name: "note", Type: db.TString},
		},
	})
	if err != nil {
		return err
	}
	if _, err := w.Query(context.Background(), "biologist",
		`INSERT INTO lab_notes VALUES ('SYN000004', 'candidate for knockout study')`); err != nil {
		return err
	}
	fmt.Println("session 1: annotated; closing with no save step")
	return nil
}

// session2 reopens the directory by WAL replay, checks that session 1's
// work is all there, and catches up with the source incrementally.
func session2(dir string, wrapper *etl.Wrapper, repo *sources.Repo) error {
	w, err := warehouse.OpenDurable(dir, 1024, wrapper)
	if err != nil {
		return err
	}
	defer w.Close()
	fmt.Printf("session 2: reopened with %d entities\n", w.CountPublic())
	r, err := w.Query(context.Background(), "biologist", `SELECT n.target, n.note, f.quality
		FROM lab_notes n JOIN fragments f ON n.target = f.id`)
	if err != nil {
		return err
	}
	if len(r.Rows) != 1 {
		return fmt.Errorf("session 2: want the 1 note session 1 wrote, got %d", len(r.Rows))
	}
	fmt.Println("session 2: notes rejoined with public data:")
	for _, row := range r.Rows {
		fmt.Printf("  %v  %q  quality=%.3f\n", row[0], row[1], row[2])
	}
	if _, err := w.Query(context.Background(), "stranger",
		`INSERT INTO lab_notes VALUES ('SYN000001', 'vandalism')`); err == nil {
		return fmt.Errorf("session 2: ownership of lab_notes was lost")
	}

	// The source moved on while we were away; catch up incrementally.
	det, err := etl.NewLogMonitor(repo)
	if err != nil {
		return err
	}
	if _, err := det.Poll(context.Background()); err != nil { // drain the loaded history
		return err
	}
	repo.ApplyRandomUpdates(9, 8)
	deltas, err := det.Poll(context.Background())
	if err != nil {
		return err
	}
	if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
		return err
	}
	fmt.Printf("session 2: applied %d deltas; warehouse now holds %d entities\n",
		len(deltas), w.CountPublic())
	return nil
}
