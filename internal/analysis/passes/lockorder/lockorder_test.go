package lockorder_test

import (
	"testing"

	"genalg/internal/analysis/atest"
	"genalg/internal/analysis/passes/lockorder"
)

func TestLockOrder(t *testing.T) {
	atest.Run(t, "testdata", "a", lockorder.Analyzer)
}

// TestLockIO checks the blocking-I/O-under-lock reports on their own fixture.
func TestLockIO(t *testing.T) {
	atest.Run(t, "testdata", "lockio", lockorder.Analyzer)
}
