package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"genalg/internal/db"
	"genalg/internal/genalgd"
	"genalg/internal/obs/httpserve"
	"genalg/internal/sqlang"
	"genalg/internal/wal"
)

// TestReadyzFailsOnCheckpointError drives an auto-checkpoint into a WAL
// fault and checks that /readyz reports it instead of the daemon staying
// ready with a log it can no longer compact.
func TestReadyzFailsOnCheckpointError(t *testing.T) {
	d, _, err := db.OpenDurable(t.TempDir(), db.DurableOptions{
		CheckpointBytes: 2048,
		Hooks: wal.Hooks{BeforeCheckpointRename: func() error {
			return errors.New("injected checkpoint fault")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eng := sqlang.NewEngine(d)
	srv, err := genalgd.New(genalgd.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	mux := httpserve.NewMux(httpserve.Options{Readiness: readiness(srv, d)})
	readyz := func() (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code, rec.Body.String()
	}

	if _, err := eng.Exec(`CREATE TABLE t (id INT, body TEXT)`); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(); code != http.StatusOK {
		t.Fatalf("fresh daemon /readyz = %d %q", code, body)
	}
	for i := 0; d.CheckpointErr() == nil; i++ {
		if i == 200 {
			t.Fatal("auto-checkpoint never ran")
		}
		if _, err := eng.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	code, body := readyz()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "db.checkpoint: injected checkpoint fault") {
		t.Fatalf("/readyz after checkpoint fault = %d %q", code, body)
	}
}
