package p_test

import (
	"testing"

	"example.com/mod/p"
)

// The xtest type-checks only if its import of p resolves to p's test
// variant.
func TestExternal(t *testing.T) { _ = p.Exported() + p.HelperForTest() }
