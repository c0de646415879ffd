package netsim

import (
	"math/bits"
	"math/rand"

	"multipath/internal/hypercube"
)

// Route builders for the §7 experiments. Builders that start from
// embedding structures (width-spread paths, multi-copy CCC pieces)
// live in internal/traffic, keeping this package free of core types so
// core can route its packet-cost measurement through the engine.

// AppendECubeRoute appends the link ids of the ascending-dimension
// (e-cube) route from src to dst on Q_n — the standard deadlock-free
// single-path router — to out and returns the extended slice; src ==
// dst appends nothing. This is the one e-cube implementation: the
// permutation and Valiant builders here and internal/routing's
// DimOrder and Valiant strategies all append through it.
func AppendECubeRoute(out []int32, q *hypercube.Q, src, dst hypercube.Node) []int32 {
	cur := src
	for d := 0; d < q.Dims(); d++ {
		if (cur^dst)&(1<<uint(d)) != 0 {
			out = append(out, int32(q.EdgeID(cur, d)))
			cur ^= 1 << uint(d)
		}
	}
	return out
}

// SliceRoutes points each msgs[i].Route at its span of arena, where
// the routes were appended back to back in message order. A builder
// that appends into one growing arena records only each route's length
// while it fills (an append may move the arena) and calls SliceRoutes
// once at the end, so every route aliases the final arena. Each span
// is capped (arena[a:b:b]): an append to one route copies instead of
// overwriting the next.
func SliceRoutes(msgs []Message, arena []int32) {
	at := 0
	for i := range msgs {
		l := len(msgs[i].Route)
		msgs[i].Route = arena[at : at+l : at+l]
		at += l
	}
}

// RandomPermutation returns a permutation of 0..n-1 with no fixed
// points avoided (plain uniform permutation), reproducible from rng.
func RandomPermutation(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// PermutationMessages builds one M-flit message per hypercube node,
// node i addressing node perm[i], with e-cube routes. The routes share
// one id arena, sized exactly by the differing-bit counts.
func PermutationMessages(q *hypercube.Q, perm []int, flits int) []*Message {
	hops := 0
	for i, p := range perm {
		hops += bits.OnesCount32(hypercube.Node(i) ^ hypercube.Node(p))
	}
	ids := make([]int32, 0, hops)
	hdrs := make([]Message, len(perm))
	msgs := make([]*Message, len(perm))
	for i, p := range perm {
		at := len(ids)
		ids = AppendECubeRoute(ids, q, hypercube.Node(i), hypercube.Node(p))
		hdrs[i] = Message{Route: ids[at:len(ids):len(ids)], Flits: flits}
		msgs[i] = &hdrs[i]
	}
	return msgs
}
