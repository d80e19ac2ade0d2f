// Blocking I/O and fan-out under a lock: reported at the call site.
package lockio

import (
	"context"
	"net"
	"os"
	"sync"

	"parallel"
	"storage"
)

type ioStore struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	pager storage.Pager
	bp    *storage.BufferPool
	m     map[string]int
}

// readUnderLock holds the mutex across a pager read.
func (s *ioStore) readUnderLock(id storage.PageID, p *storage.Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pager.Read(id, p) // want `call to Pager\.Read \(pager I/O\) while s\.mu is held`
}

// windowed releases the lock before touching the disk: clean.
func (s *ioStore) windowed(path string) ([]byte, error) {
	s.mu.Lock()
	v := s.m["k"]
	s.mu.Unlock()
	_ = v
	return os.ReadFile(path)
}

// osUnderLock does file I/O inside an explicit Lock..Unlock window.
func (s *ioStore) osUnderLock(path string) {
	s.mu.Lock()
	b, _ := os.ReadFile(path) // want `call to os\.ReadFile \(file I/O\) while s\.mu is held`
	_ = b
	s.mu.Unlock()
}

// fanoutUnderLock dispatches to the worker pool while locked.
func (s *ioStore) fanoutUnderLock(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parallel.ForEach(ctx, 4, func(i int) {}) // want `call to parallel\.ForEach \(worker-pool fan-out\) while s\.mu is held`
}

// rlockWrite holds a read lock across a pager write.
func (s *ioStore) rlockWrite(id storage.PageID, p *storage.Page) error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.pager.Write(id, p) // want `call to Pager\.Write \(pager I/O\) while s\.rw is held`
}

// pinUnderLock pins (possible disk read) inside the critical section.
func (s *ioStore) pinUnderLock(id storage.PageID) {
	s.mu.Lock()
	pg, err := s.bp.Pin(id) // want `call to BufferPool\.Pin \(buffer-pool I/O\) while s\.mu is held`
	_, _ = pg, err
	s.mu.Unlock()
}

// unpinUnderLock is fine: Unpin is purely in-memory.
func (s *ioStore) unpinUnderLock(id storage.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.bp.Unpin(id, false)
}

// dialUnderLock opens a network connection while locked.
func (s *ioStore) dialUnderLock(addr string) (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return net.Dial("tcp", addr) // want `call to net\.Dial \(network I/O\) while s\.mu is held`
}

// closureDefined only defines a closure under the lock: clean.
func (s *ioStore) closureDefined(path string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := func() { _, _ = os.ReadFile(path) }
	return f
}

// branchScoped acquires inside a branch; I/O after the branch is clean.
func (s *ioStore) branchScoped(path string, cond bool) {
	if cond {
		s.mu.Lock()
		s.m["k"]++
		s.mu.Unlock()
	}
	_, _ = os.ReadFile(path)
}

// suppressed documents a deliberate lock-held read, as the buffer pool's
// miss path does.
func (s *ioStore) suppressed(id storage.PageID, p *storage.Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//genalgvet:ignore lockorder fixture: miss path must read under the lock to stay coherent
	return s.pager.Read(id, p)
}
