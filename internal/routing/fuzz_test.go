package routing

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"multipath/internal/hypercube"
)

// FuzzStrategyRoutes checks the one invariant every strategy must
// uphold: Route(src, dst) is a valid src→dst walk over dense directed
// edge ids — each id is in [0, n·2^n), leaves the walk's current node,
// and the walk ends at dst — with minimal strategies taking exactly
// Hamming-distance hops and Valiant at most 2n. Route appends: a fresh
// instance handed a non-empty out with spare capacity keeps out's ids
// and appends the same walk after them.
func FuzzStrategyRoutes(f *testing.F) {
	f.Add(uint8(4), uint32(3), uint32(12), int64(1), uint8(0))
	f.Add(uint8(6), uint32(0), uint32(63), int64(7), uint8(1))
	f.Add(uint8(1), uint32(1), uint32(1), int64(0), uint8(2))
	f.Add(uint8(8), uint32(200), uint32(77), int64(-5), uint8(3))
	f.Fuzz(func(t *testing.T, dims uint8, src, dst uint32, seed int64, which uint8) {
		n := 1 + int(dims)%8
		q := hypercube.New(n)
		s := strategies(q)[int(which)%4]
		a := hypercube.Node(int(src) % q.Nodes())
		b := hypercube.Node(int(dst) % q.Nodes())
		rng := rand.New(rand.NewSource(seed))
		route := s.Route(nil, a, b, rng)
		hops := checkWalk(t, q, a, b, route)
		out := append(make([]int32, 0, 4*n), -1, -2)
		got := strategies(q)[int(which)%4].Route(out, a, b, rand.New(rand.NewSource(seed)))
		if !slices.Equal(got[:2], []int32{-1, -2}) || !slices.Equal(got[2:], route) {
			t.Fatalf("%s %d→%d on Q_%d: appending to %v gave %v, want the prefix then %v", s.Name(), a, b, n, out, got, route)
		}
		dist := bits.OnesCount32(a ^ b)
		if s.Name() == "valiant" {
			if hops > 2*n {
				t.Fatalf("valiant %d→%d on Q_%d took %d hops > 2n", a, b, n, hops)
			}
		} else if hops != dist {
			t.Fatalf("%s %d→%d on Q_%d took %d hops, want %d", s.Name(), a, b, n, hops, dist)
		}
	})
}
