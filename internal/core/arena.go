package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"multipath/internal/graph"
	"multipath/internal/hypercube"
)

// This file is the construction engine: the build-time counterpart of
// the metric engine in routecache.go. Constructors used to assemble
// embeddings as millions of tiny Path slices, and the first metric
// call then re-derived the flat edge-id arena from scratch. An Arena
// lets a constructor append routes directly into dense form — one
// shared node arena, one shared int32 edge-id arena, prefix-sum
// offsets — so the finished Embedding's Paths are views into a single
// allocation and its route cache is adopted at build time: the
// fingerprint is stamped during assembly and the first verification
// pays no rebuild.
//
// BuildParallel fans edge emission across workers, one private Arena
// each over a contiguous guest-edge range, and merges the parts by
// prefix sums. Emission order is deterministic (edge i always lands at
// position i), so the result is bit-identical to a serial build — the
// retained slice-of-slices constructors (Theorem1Reference and
// friends) are the golden models the equivalence tests pin against.

// Arena is a growable flat route store. Routes are appended one hop at
// a time (or whole via Route/RouteDims), grouped into per-guest-edge
// path sets by BeginEdge. Hop validity (adjacency, address range) is
// checked as hops are appended; the first violation is remembered and
// reported by Finish, so constructors need no per-hop error handling.
//
// An Arena is single-goroutine; BuildParallel gives each worker its
// own.
type Arena struct {
	q     *hypercube.Q
	limit hypercube.Node // 2^n, for address range checks

	nodes   []hypercube.Node // every path's nodes, back to back
	ids     []int32          // every path's edge ids, back to back
	pathOff []int32          // per-path id extents; path p's nodes are nodes[pathOff[p]+p : pathOff[p+1]+p+1]
	edgeOff []int32          // per-edge path extents into pathOff

	open     bool // a route is being appended
	inEdge   bool // BeginEdge has been called
	maxLen   int  // longest closed route, in edges
	baseEdge int  // global index of this arena's first edge (set by BuildParallel)

	err error
}

// NewArena returns an empty arena over host q.
func NewArena(q *hypercube.Q) *Arena {
	return &Arena{
		q:       q,
		limit:   hypercube.Node(1) << uint(q.Dims()),
		pathOff: make([]int32, 1),
		edgeOff: make([]int32, 1),
	}
}

// Reserve pre-sizes the arena for about edges guest edges with
// pathsPerEdge paths of idsPerPath edges each. Purely an optimization;
// the arena grows past the hint as needed.
func (a *Arena) Reserve(edges, pathsPerEdge, idsPerPath int) {
	if edges <= 0 || pathsPerEdge <= 0 {
		return
	}
	paths := edges * pathsPerEdge
	ids := paths * idsPerPath
	if cap(a.edgeOff) < edges+1 {
		a.edgeOff = append(make([]int32, 0, edges+1), a.edgeOff...)
	}
	if cap(a.pathOff) < paths+1 {
		a.pathOff = append(make([]int32, 0, paths+1), a.pathOff...)
	}
	if cap(a.ids) < ids {
		a.ids = append(make([]int32, 0, ids), a.ids...)
	}
	if cap(a.nodes) < ids+paths {
		a.nodes = append(make([]hypercube.Node, 0, ids+paths), a.nodes...)
	}
}

// fail records the first error with the current (edge, path) position.
func (a *Arena) fail(format string, args ...any) {
	if a.err != nil {
		return
	}
	edge := a.baseEdge + len(a.edgeOff) - 1
	path := len(a.pathOff) - 1 - int(a.edgeOff[len(a.edgeOff)-1])
	a.err = fmt.Errorf("core: guest edge %d path %d: %s", edge, path, fmt.Sprintf(format, args...))
}

// closeRoute finalizes the route being appended, if any.
func (a *Arena) closeRoute() {
	if !a.open {
		return
	}
	a.open = false
	if int64(len(a.ids)) > math.MaxInt32 {
		if a.err == nil {
			a.err = fmt.Errorf("core: %d path edges exceed the dense id arena limit", len(a.ids))
		}
		return
	}
	if l := len(a.ids) - int(a.pathOff[len(a.pathOff)-1]); l > a.maxLen {
		a.maxLen = l
	}
	a.pathOff = append(a.pathOff, int32(len(a.ids)))
}

// BeginEdge closes the previous guest edge's path set and starts the
// next one. Every edge must receive its paths between consecutive
// BeginEdge calls (or BeginEdge and Finish).
func (a *Arena) BeginEdge() {
	a.closeRoute()
	if a.inEdge {
		a.edgeOff = append(a.edgeOff, int32(len(a.pathOff)-1))
	}
	a.inEdge = true
}

// seal closes the last route and the last edge.
func (a *Arena) seal() {
	a.closeRoute()
	if a.inEdge {
		a.edgeOff = append(a.edgeOff, int32(len(a.pathOff)-1))
		a.inEdge = false
	}
}

// StartRoute begins a new path at node from for the current edge.
func (a *Arena) StartRoute(from hypercube.Node) {
	a.closeRoute()
	if !a.inEdge {
		a.fail("route started before BeginEdge")
		return
	}
	if from >= a.limit {
		a.fail("node %d outside %v", from, a.q)
	}
	a.open = true
	a.nodes = append(a.nodes, from)
}

// Step extends the current path to next, which must be a hypercube
// neighbor of the path's last node.
func (a *Arena) Step(next hypercube.Node) {
	if !a.open {
		a.fail("step before StartRoute")
		return
	}
	last := a.nodes[len(a.nodes)-1]
	x := last ^ next
	if next >= a.limit {
		a.fail("node %d outside %v", next, a.q)
	} else if x == 0 || x&(x-1) != 0 {
		a.fail("nodes %d and %d are not adjacent", last, next)
	}
	if x == 0 {
		x = 1 // error already recorded; keep the id in range
	}
	a.nodes = append(a.nodes, next)
	a.ids = append(a.ids, int32(int(last)*a.q.Dims()+bits.TrailingZeros32(uint32(x))))
}

// StepDim extends the current path across dimension d.
func (a *Arena) StepDim(d int) {
	if !a.open {
		a.fail("step before StartRoute")
		return
	}
	if d < 0 || d >= a.q.Dims() {
		a.fail("dimension %d outside %v", d, a.q)
		return
	}
	last := a.nodes[len(a.nodes)-1]
	a.nodes = append(a.nodes, last^1<<uint(d))
	a.ids = append(a.ids, int32(int(last)*a.q.Dims()+d))
}

// Route appends one whole path given its node sequence.
func (a *Arena) Route(nodes ...hypercube.Node) {
	if len(nodes) == 0 {
		a.fail("empty path")
		return
	}
	a.StartRoute(nodes[0])
	for _, v := range nodes[1:] {
		a.Step(v)
	}
}

// RouteDims is the arena-writing variant of the package-level
// RouteDims: it appends the path that starts at from and crosses the
// given dimensions in order.
func (a *Arena) RouteDims(from hypercube.Node, dims ...int) {
	a.StartRoute(from)
	for _, d := range dims {
		a.StepDim(d)
	}
}

// Err returns the first append error, if any.
func (a *Arena) Err() error { return a.err }

// Finish assembles the embedding from this arena alone: guest edge i's
// path set is the i-th BeginEdge group, in order. The returned
// embedding's Paths are views into the arena and its dense route cache
// is adopted — fingerprint stamped — so the first metric call performs
// no rebuild.
func (a *Arena) Finish(guest *graph.Graph, vertexMap []hypercube.Node) (*Embedding, error) {
	a.seal()
	return assemble(a.q, guest, vertexMap, []*Arena{a})
}

// totals reports the arena's closed sizes (paths, ids, nodes, edges).
func (a *Arena) totals() (paths, ids, nodes, edges int) {
	return len(a.pathOff) - 1, len(a.ids), len(a.nodes), len(a.edgeOff) - 1
}

// assemble merges per-worker arenas (in guest-edge order) into one
// Embedding with dense backing arrays and an adopted route cache. Each
// part must already be closed (Finish/BuildParallel do this).
func assemble(q *hypercube.Q, guest *graph.Graph, vertexMap []hypercube.Node, parts []*Arena) (*Embedding, error) {
	for _, part := range parts {
		if part.err != nil {
			return nil, part.err
		}
	}
	totalPaths, totalIDs, totalNodes, m := 0, 0, 0, 0
	for _, part := range parts {
		p, i, n, e := part.totals()
		totalPaths += p
		totalIDs += i
		totalNodes += n
		m += e
	}
	if m != guest.M() {
		return nil, fmt.Errorf("core: arena holds %d edges for a %d-edge guest", m, guest.M())
	}
	if int64(totalIDs) > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d path edges exceed the dense id arena limit", totalIDs)
	}

	var (
		ids     []int32
		nodes   []hypercube.Node
		pathOff []int32
		edgeOff []int32
		maxLen  int
	)
	if len(parts) == 1 {
		// Adopt the single arena's arrays wholesale.
		a := parts[0]
		ids, nodes, pathOff, edgeOff, maxLen = a.ids, a.nodes, a.pathOff, a.edgeOff, a.maxLen
	} else {
		ids = make([]int32, totalIDs)
		nodes = make([]hypercube.Node, totalNodes)
		pathOff = make([]int32, totalPaths+1)
		edgeOff = make([]int32, m+1)
		// Per-part base offsets by prefix sum, then independent copies.
		idBase := make([]int, len(parts))
		nodeBase := make([]int, len(parts))
		pathBase := make([]int, len(parts))
		edgeBase := make([]int, len(parts))
		for w := 1; w < len(parts); w++ {
			p, i, n, e := parts[w-1].totals()
			idBase[w] = idBase[w-1] + i
			nodeBase[w] = nodeBase[w-1] + n
			pathBase[w] = pathBase[w-1] + p
			edgeBase[w] = edgeBase[w-1] + e
		}
		var wg sync.WaitGroup
		for w, part := range parts {
			wg.Add(1)
			go func(w int, part *Arena) {
				defer wg.Done()
				copy(ids[idBase[w]:], part.ids)
				copy(nodes[nodeBase[w]:], part.nodes)
				for k := 1; k < len(part.pathOff); k++ {
					pathOff[pathBase[w]+k] = part.pathOff[k] + int32(idBase[w])
				}
				for k := 1; k < len(part.edgeOff); k++ {
					edgeOff[edgeBase[w]+k] = part.edgeOff[k] + int32(pathBase[w])
				}
			}(w, part)
			if part.maxLen > maxLen {
				maxLen = part.maxLen
			}
		}
		wg.Wait()
	}

	// Path headers: path p's nodes start at pathOff[p]+p (each path
	// carries one more node than it has edges). Three-index slicing
	// caps every view so a caller appending to a path or a path set
	// copies instead of clobbering its neighbor in the arena.
	allPaths := make([]Path, totalPaths)
	parallelFor(totalPaths, 4096, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			s, e := int(pathOff[p])+p, int(pathOff[p+1])+p+1
			allPaths[p] = nodes[s:e:e]
		}
	})
	paths := make([][]Path, m)
	parallelFor(m, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, e := edgeOff[i], edgeOff[i+1]
			paths[i] = allPaths[s:e:e]
		}
	})

	e := &Embedding{
		Host:      q,
		Guest:     guest,
		VertexMap: vertexMap,
		Paths:     paths,
	}
	rc := &routeCache{
		ids:     ids,
		pathOff: pathOff,
		edgeOff: edgeOff,
		maxLen:  maxLen,
	}
	// Stamp the fingerprint over the new path views and adopt the cache.
	rc.fp = e.fingerprint()
	rcMu.Lock()
	e.rc = rc
	rcMu.Unlock()
	return e, nil
}

// BuildParallel builds an embedding by calling emit(i, a) for every
// guest edge i of guest, fanning contiguous edge ranges across
// GOMAXPROCS workers, each with a private Arena, merged by prefix
// sums. emit must append edge i's paths (the arena is already
// positioned on the edge: no BeginEdge call needed) and must be safe
// to run concurrently for distinct edges. hintPaths and hintLen
// pre-size the per-worker arenas (paths per edge / edges per path; 0
// if unknown).
//
// The first error — from emit or from an invalid appended hop —
// belonging to the lowest guest edge wins, so failures are
// deterministic regardless of scheduling.
func BuildParallel(q *hypercube.Q, guest *graph.Graph, vertexMap []hypercube.Node,
	hintPaths, hintLen int, emit func(i int, a *Arena) error) (*Embedding, error) {
	return buildParallel(q, guest, vertexMap, hintPaths, hintLen, runtime.GOMAXPROCS(0), emit)
}

// buildParallel is BuildParallel with an explicit worker count, so
// tests can force real fan-out (and -race interleavings) on any
// machine.
func buildParallel(q *hypercube.Q, guest *graph.Graph, vertexMap []hypercube.Node,
	hintPaths, hintLen int, workers int, emit func(i int, a *Arena) error) (*Embedding, error) {
	m := guest.M()
	const minChunk = 256
	if workers > m/minChunk {
		workers = m / minChunk
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (m + workers - 1) / workers
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		spans = append(spans, span{lo, hi})
	}
	if len(spans) == 0 {
		spans = []span{{0, 0}}
	}
	parts := make([]*Arena, len(spans))
	var wg sync.WaitGroup
	for w, sp := range spans {
		wg.Add(1)
		go func(w int, sp span) {
			defer wg.Done()
			a := NewArena(q)
			a.baseEdge = sp.lo
			a.Reserve(sp.hi-sp.lo, hintPaths, hintLen)
			for i := sp.lo; i < sp.hi; i++ {
				a.BeginEdge()
				if err := emit(i, a); err != nil {
					if a.err == nil {
						a.err = fmt.Errorf("core: guest edge %d: %w", i, err)
					}
					break
				}
				if a.err != nil {
					break
				}
			}
			a.seal()
			parts[w] = a
		}(w, sp)
	}
	wg.Wait()
	return assemble(q, guest, vertexMap, parts)
}
