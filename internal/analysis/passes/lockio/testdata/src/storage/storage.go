// Package storage is a fixture stand-in for genalg/internal/storage.
package storage

// PageID identifies a page.
type PageID uint64

// Page is a fixture page.
type Page struct{ Data []byte }

// Pager mimics the real disk pager interface.
type Pager interface {
	Read(id PageID, p *Page) error
	Write(id PageID, p *Page) error
	Allocate() (PageID, error)
}

// BufferPool mimics the real buffer pool.
type BufferPool struct{}

// Pin fetches a page, possibly from disk.
func (bp *BufferPool) Pin(id PageID) (*Page, error) { return nil, nil }

// Unpin releases a pin; purely in-memory.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error { return nil }

// Allocate creates a fresh page.
func (bp *BufferPool) Allocate() (PageID, *Page, error) { return 0, nil, nil }

// FlushAll writes every dirty page back.
func (bp *BufferPool) FlushAll() error { return nil }
