package p

import "testing"

// HelperForTest exists only in p's test variant.
var HelperForTest = helper

func TestInternal(t *testing.T) { _ = Exported() }
