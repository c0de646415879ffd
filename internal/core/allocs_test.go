//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is
// given, so the pooled bitsets allocate again under -race.

package core

import (
	"testing"

	"multipath/internal/hypercube"
)

// TestWarmMetricsAllocs pins the allocations of warm verification at
// GOMAXPROCS 1 (testing.AllocsPerRun sets it) on an embedding of six
// fingerprint blocks: the fingerprint hashes inline and allocates
// nothing, SynchronizedCost's pass allocates nothing, and Width and
// Validate allocate only their parallel pass's closure and flag.
func TestWarmMetricsAllocs(t *testing.T) {
	e, err := sweep(hypercube.New(11), 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		limit float64
		run   func() error
	}{
		{"Validate", 2, e.Validate},
		{"Width", 2, func() error { _, err := e.Width(); return err }},
		{"SynchronizedCost", 0, func() error { _, err := e.SynchronizedCost(); return err }},
	} {
		got := testing.AllocsPerRun(20, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got > c.limit {
			t.Errorf("%s: %v allocations per warm call, want at most %v", c.name, got, c.limit)
		}
	}
}
