package store_test

import (
	"testing"

	"vcqr/internal/leakcheck"
)

// TestMain fails the package when a goroutine of this module outlives its
// tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
