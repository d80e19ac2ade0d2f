// Package db stubs tables for durability fixtures. Because this package
// IS db, its own direct mutations are exempt — ApplyDML has to call
// Insert somehow.
package db

type Row struct{}

// Table mimics genalg/internal/db.Table.
type Table struct{}

func (t *Table) Insert(r Row) error      { return nil }
func (t *Table) Delete(key string) error { return nil }

func (t *Table) CreateBTreeIndex(col string) error          { return nil }
func (t *Table) CreateGenomicIndex(col string, k int) error { return nil }

// DB mimics genalg/internal/db.DB.
type DB struct{ T *Table }

// ApplyDML is the sanctioned mutation path.
func (d *DB) ApplyDML(stmt string) error {
	if err := d.T.Insert(Row{}); err != nil {
		return err
	}
	return d.T.Delete("k")
}

// CreateBTreeIndexOn is the sanctioned (logged) index DDL path.
func (d *DB) CreateBTreeIndexOn(table, col string) error {
	return d.T.CreateBTreeIndex(col)
}

// CreateGenomicIndexOn is the sanctioned (logged) genomic index DDL path.
func (d *DB) CreateGenomicIndexOn(table, col string, k int) error {
	return d.T.CreateGenomicIndex(col, k)
}
