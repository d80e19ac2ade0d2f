// Package p is a load fixture with internal and external tests.
package p

// Exported is used by both test packages.
func Exported() int { return helper() }

func helper() int { return 1 }
