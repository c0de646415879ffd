// Package core defines the embedding abstractions of Greenberg & Bhatt
// §3 — one-to-one and many-to-one embeddings, multiple-path (width-w)
// embeddings, and multiple-copy embeddings — together with independent
// verifiers for every metric the paper bounds: load, dilation,
// congestion, width (edge-disjointness), and packet cost under the
// paper's unit-capacity step model.
//
// Constructors in other packages (Theorem 1, Theorem 2, Theorem 3, ...)
// return these structures; tests never trust a constructor's claimed
// metrics but re-derive them here.
//
// The verifiers share a dense route cache (see routecache.go): every
// path's host-edge ids are computed once into a flat int32 arena, and
// each metric runs as one pass over it with pooled scratch, so a warm
// verification allocates almost nothing. The original map-based
// verifiers survive in reference.go as golden models.
package core

import (
	"fmt"
	"sync/atomic"

	"multipath/internal/graph"
	"multipath/internal/hypercube"
)

// Path is a host path: a sequence of hypercube nodes in which
// consecutive entries are neighbors. A single node is a legal
// (length-0) path only as the image of a guest edge whose endpoints
// are co-located under a many-to-one map.
type Path []hypercube.Node

// Embedding maps a guest graph into a hypercube host. VertexMap[v] is
// the host image of guest vertex v (many-to-one allowed); Paths[i] is
// the set of host paths assigned to the i-th guest edge (parallel to
// Guest.Edges()). A classical embedding has exactly one path per edge;
// a width-w multiple-path embedding has w edge-disjoint paths per edge.
//
// Embeddings may be mutated freely between metric calls: the cached
// route form is fingerprinted and rebuilt when the paths change.
type Embedding struct {
	Host      *hypercube.Q
	Guest     *graph.Graph
	VertexMap []hypercube.Node
	Paths     [][]Path

	rc *routeCache // dense route form; nil until first metric call
}

// Validate checks structural integrity: vertex map in range, one path
// set per guest edge, every path a valid hypercube path connecting the
// images of its edge's endpoints.
func (e *Embedding) Validate() error {
	if len(e.VertexMap) != e.Guest.N() {
		return fmt.Errorf("embedding: vertex map covers %d of %d guest vertices", len(e.VertexMap), e.Guest.N())
	}
	for v, h := range e.VertexMap {
		if !e.Host.Contains(h) {
			return fmt.Errorf("embedding: vertex %d mapped outside host: %d", v, h)
		}
	}
	if len(e.Paths) != e.Guest.M() {
		return fmt.Errorf("embedding: %d path sets for %d guest edges", len(e.Paths), e.Guest.M())
	}
	if _, err := e.routes(); err != nil {
		return e.validateReference()
	}
	var bad atomic.Bool
	parallelFor(len(e.Paths), 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ps := e.Paths[i]
			if len(ps) == 0 {
				bad.Store(true)
				return
			}
			ge := e.Guest.Edge(i)
			from, to := e.VertexMap[ge.U], e.VertexMap[ge.V]
			for _, p := range ps {
				if p[0] != from || p[len(p)-1] != to {
					bad.Store(true)
					return
				}
			}
		}
	})
	if bad.Load() {
		return e.validateReference()
	}
	return nil
}

// Load returns the maximum number of guest vertices mapped to one host
// node.
func (e *Embedding) Load() int {
	counts := make([]int, e.Host.Nodes())
	max := 0
	for _, h := range e.VertexMap {
		counts[h]++
		if counts[h] > max {
			max = counts[h]
		}
	}
	return max
}

// Dilation returns the maximum path length over all paths of all guest
// edges.
func (e *Embedding) Dilation() int {
	max := 0
	for _, ps := range e.Paths {
		for _, p := range ps {
			if len(p)-1 > max {
				max = len(p) - 1
			}
		}
	}
	return max
}

// MinDilation returns, maximized over guest edges, the length of the
// edge's shortest assigned path — the latency floor when only the best
// path is used.
func (e *Embedding) MinDilation() int {
	max := 0
	for _, ps := range e.Paths {
		best := -1
		for _, p := range ps {
			if best < 0 || len(p)-1 < best {
				best = len(p) - 1
			}
		}
		if best > max {
			max = best
		}
	}
	return max
}

// Width verifies that every guest edge's paths are pairwise
// edge-disjoint and returns the minimum number of paths assigned to any
// guest edge. An error identifies the first overlap found.
//
// The check is overlaps' one parallel pass over the cached ids; on any
// violation the reference implementation re-derives the exact original
// error.
func (e *Embedding) Width() (int, error) {
	rc, err := e.routes()
	if err != nil || rc.overlaps(e.Host.DirectedEdges()) {
		return e.WidthReference()
	}
	m := len(e.Paths)
	width := -1
	for i := 0; i < m; i++ {
		if c := int(rc.edgeOff[i+1] - rc.edgeOff[i]); width < 0 || c < width {
			width = c
		}
	}
	if width < 0 {
		width = 0
	}
	return width, nil
}

// overlaps reports whether some guest edge's ids repeat a directed host
// edge of the hostEdges: two of its paths share one, or one path
// crosses one twice. The pass runs in parallel over guest edges. Each
// worker takes a pooled bitset of hostEdges bits, tests and sets the
// bit of every id of an edge, and clears exactly that edge's bits
// before the next edge and on every exit, so the bitset goes back to
// the pool all-zero.
func (rc *routeCache) overlaps(hostEdges int) bool {
	var dup atomic.Bool
	parallelFor(len(rc.edgeOff)-1, 16, func(lo, hi int) {
		bp := edgeBitsets.get(hostEdges)
		defer edgeBitsets.put(bp)
		bits := *bp
		for i := lo; i < hi && !dup.Load(); i++ {
			ids := rc.edgeIDs(i)
			if len(ids) < 2 {
				continue
			}
			for k, id := range ids {
				if bits[id>>6]&(1<<(uint(id)&63)) != 0 {
					clearIDs(bits, ids[:k])
					dup.Store(true)
					return
				}
				bits[id>>6] |= 1 << (uint(id) & 63)
			}
			clearIDs(bits, ids)
		}
	})
	return dup.Load()
}

// clearIDs clears the bits of ids.
func clearIDs(bits []uint64, ids []int32) {
	for _, id := range ids {
		bits[id>>6] &^= 1 << (uint(id) & 63)
	}
}

// Congestion returns the maximum, over directed host edges, of the
// number of guest-edge paths whose image contains that edge (§3: for a
// width-w embedding each guest edge contributes at most once per host
// edge because its paths are edge-disjoint).
func (e *Embedding) Congestion() (int, error) {
	max, _, err := e.edgeCounts()
	return max, err
}

// LinkUtilization returns the fraction of directed host edges used by
// at least one path. Theorem 1 uses about half the links; Theorem 2
// with n ≡ 0 (mod 4) uses all of them.
func (e *Embedding) LinkUtilization() (float64, error) {
	_, used, err := e.edgeCounts()
	if err != nil {
		return 0, err
	}
	return float64(used) / float64(e.Host.DirectedEdges()), nil
}

// edgeCounts makes one parallel pass over the id arena with a pooled
// counter slice, returning the maximum count on any directed host edge
// and the number of distinct edges used. The counter is re-zeroed by a
// second pass over the same arena (atomic swap: the first visit to an
// entry reads its count and clears it, later visits read zero), so the
// pooled slice keeps its all-zero invariant without an O(edges) sweep.
func (e *Embedding) edgeCounts() (max, used int, err error) {
	rc, err := e.routes()
	if err != nil {
		return 0, 0, err
	}
	cp := getCounts(e.Host.DirectedEdges())
	defer putCounts(cp)
	counts := *cp
	parallelFor(len(rc.ids), 4096, func(lo, hi int) {
		for _, id := range rc.ids[lo:hi] {
			atomic.AddInt32(&counts[id], 1)
		}
	})
	var maxA, usedA int64
	parallelFor(len(rc.ids), 4096, func(lo, hi int) {
		localMax, localUsed := int64(0), int64(0)
		for _, id := range rc.ids[lo:hi] {
			if c := int64(atomic.SwapInt32(&counts[id], 0)); c > 0 {
				localUsed++
				if c > localMax {
					localMax = c
				}
			}
		}
		atomic.AddInt64(&usedA, localUsed)
		for {
			old := atomic.LoadInt64(&maxA)
			if localMax <= old || atomic.CompareAndSwapInt64(&maxA, old, localMax) {
				break
			}
		}
	})
	return int(maxA), int(usedA), nil
}

// OneToOne reports whether the vertex map is injective.
func (e *Embedding) OneToOne() bool {
	seen := make([]bool, e.Host.Nodes())
	for _, h := range e.VertexMap {
		if seen[h] {
			return false
		}
		seen[h] = true
	}
	return true
}
