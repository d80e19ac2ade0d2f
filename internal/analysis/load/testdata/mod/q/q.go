// Package q has no tests.
package q

import "example.com/mod/p"

// Twice calls p twice.
func Twice() int { return p.Exported() * 2 }
