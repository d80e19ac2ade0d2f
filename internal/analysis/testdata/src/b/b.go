// Package b builds its facts on a's: Nested inherits a.Locked's
// acquisition and call summary.
package b

import (
	"sync"

	"a"
)

var mu sync.Mutex

// Nested takes b.mu, then a.mu through a.Locked.
func Nested(f func()) {
	mu.Lock()
	a.Locked(f)
	mu.Unlock()
}
