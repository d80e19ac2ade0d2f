package db

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"genalg/internal/btree"
	"genalg/internal/kmeridx"
	"genalg/internal/obs"
	"genalg/internal/storage"
	"genalg/internal/wal"
)

// DB is an engine instance: a catalog of tables over a shared buffer pool,
// a UDT registry, and an external-function registry. Create one with
// OpenMemory (ephemeral) or OpenDurable (WAL-backed crash recovery).
type DB struct {
	pool  *storage.BufferPool
	pager storage.Pager
	UDTs  *UDTRegistry
	Funcs *FuncRegistry

	mu     sync.RWMutex
	tables map[string]*Table

	// wal is the write-ahead log of a durable engine (nil otherwise); set
	// once by OpenDurable after replay, before the engine is shared.
	wal *wal.Log
	// dmlMu serializes DML statements and logged DDL so WAL append order
	// equals in-memory apply order (and so one statement's row loop can't
	// interleave with another's). Reads never take it.
	dmlMu sync.Mutex
	// checkpointBytes triggers auto-compaction of the WAL once it has grown
	// by this many bytes since the last checkpoint; 0 disables. Set once by
	// OpenDurable.
	checkpointBytes int64
	// checkpointBase is the log size right after the last checkpoint (0
	// at open): the auto-checkpoint trigger measures growth from here, so
	// an insert-only log that compaction cannot shrink is not rewritten on
	// every commit.
	checkpointBase atomic.Int64
	// checkpointing keeps a commit burst from stacking redundant
	// checkpoints.
	checkpointing atomic.Bool
	// checkpointErr holds the last auto-checkpoint failure until a later
	// checkpoint succeeds (see CheckpointErr).
	checkpointErr atomic.Pointer[error]
}

// OpenMemory creates an ephemeral in-memory engine; poolPages bounds the
// buffer pool (a few hundred pages suffices for tests).
func OpenMemory(poolPages int) (*DB, error) {
	pager := storage.NewMemPager()
	pool, err := storage.NewBufferPool(pager, poolPages)
	if err != nil {
		return nil, err
	}
	pool.RegisterMetrics(obs.Default, "db")
	return &DB{
		pool:   pool,
		pager:  pager,
		UDTs:   NewUDTRegistry(),
		Funcs:  NewFuncRegistry(),
		tables: make(map[string]*Table),
	}, nil
}

// Close flushes and closes the engine (including its WAL, if durable).
func (d *DB) Close() error {
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			return err
		}
	}
	if err := d.pool.FlushAll(); err != nil {
		return err
	}
	return d.pager.Close()
}

// PoolStats returns the engine's buffer-pool counters.
func (d *DB) PoolStats() storage.Stats { return d.pool.Stats() }

// CreateTable registers a new empty table with the given schema. On a
// durable engine the DDL is logged and fsynced before CreateTable returns,
// so the table survives restart. WAL replay also creates tables through
// here, but runs before the log is attached, so it does not re-log.
func (d *DB) CreateTable(s Schema) (*Table, error) {
	if s.Table == "" {
		return nil, fmt.Errorf("db: table needs a name")
	}
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("db: table %s needs at least one column", s.Table)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("db: table %s has an unnamed column", s.Table)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("db: table %s has duplicate column %q", s.Table, c.Name)
		}
		seen[c.Name] = true
		if c.Type == TOpaque {
			if _, ok := d.UDTs.Get(c.UDTName); !ok {
				return nil, fmt.Errorf("db: table %s column %s references unregistered UDT %q", s.Table, c.Name, c.UDTName)
			}
		}
	}
	d.dmlMu.Lock()
	defer d.dmlMu.Unlock()
	t, err := d.addTable(s)
	if err != nil || d.wal == nil {
		return t, err
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("db: encoding schema of %s: %w", s.Table, err)
	}
	//genalgvet:ignore lockorder dmlMu is the engine's statement lock, not a data mutex: DDL must be logged and fsynced inside it so no DML statement can interleave with a half-durable schema change
	if err := d.logDDL(wal.Record{Type: wal.RecCreateTable, Table: s.Table, Data: payload}); err != nil {
		// The table exists in memory but can never be durable; surface the
		// failure rather than silently diverging from the log.
		return nil, err
	}
	return t, nil
}

// addTable enters a validated schema into the catalog.
func (d *DB) addTable(s Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[s.Table]; exists {
		return nil, fmt.Errorf("db: table %s already exists", s.Table)
	}
	t := &Table{
		schema: s,
		reg:    d.UDTs,
		heap:   storage.NewHeapFile(d.pool),
		btrees: make(map[string]*btree.Tree),
		kmers:  make(map[string]*kmeridx.Index),
	}
	d.tables[s.Table] = t
	return t, nil
}

// DropTable removes a table from the catalog. Its pages are orphaned (space
// reclamation is a vacuum concern).
func (d *DB) DropTable(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[name]; !exists {
		return fmt.Errorf("db: table %s does not exist", name)
	}
	delete(d.tables, name)
	return nil
}

// Table returns the named table.
func (d *DB) Table(name string) (*Table, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	return t, ok
}

// Tables lists table names in lexical order.
func (d *DB) Tables() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for n := range d.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
