// Package a declares a helper whose facts package b imports.
package a

import "sync"

var mu sync.Mutex

// Locked runs f under mu: it acquires a.mu (lockorder) and calls its
// func parameter on every path (pathflow).
func Locked(f func()) {
	mu.Lock()
	defer mu.Unlock()
	f()
}
