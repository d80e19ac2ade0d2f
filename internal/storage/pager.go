package storage

import (
	"fmt"
	"sync"
)

// Pager provides page-granular I/O over a backing store. Implementations
// must be safe for concurrent use.
type Pager interface {
	// Allocate appends a zeroed page and returns its ID.
	Allocate() (PageID, error)
	// Read fills dst with the page contents.
	Read(id PageID, dst *Page) error
	// Write persists the page contents.
	Write(id PageID, src *Page) error
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases resources.
	Close() error
}

// MemPager is an in-memory Pager for tests and ephemeral databases.
type MemPager struct {
	mu    sync.Mutex
	pages []*Page
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// Allocate implements Pager.
func (p *MemPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pages = append(p.pages, &Page{})
	return PageID(len(p.pages) - 1), nil
}

// Read implements Pager.
func (p *MemPager) Read(id PageID, dst *Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(p.pages))
	}
	*dst = *p.pages[id]
	return nil
}

// Write implements Pager.
func (p *MemPager) Write(id PageID, src *Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(p.pages))
	}
	*p.pages[id] = *src
	return nil
}

// NumPages implements Pager.
func (p *MemPager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pages)
}

// Close implements Pager.
func (p *MemPager) Close() error { return nil }
