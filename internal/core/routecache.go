package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the dense route cache behind every metric in the
// package. The paper's verifiers all reduce to scans over the multiset
// of directed host-edge ids traversed by the embedding's paths; the old
// implementations re-derived those ids with Host.PathEdgeIDs on every
// call and counted them in maps. The cache computes the ids once, packs
// them into one flat arena, and lets the metrics run as passes over
// int32 slices with pooled scratch — the same design as the netsim
// engine. A pass is parallel where the work splits cleanly (Width's
// guest edges) or counts with atomics (Congestion's ids), and serial
// where a shared bitset would otherwise need atomics (SynchronizedCost's
// (edge, step) keys).
//
// Layout: ids holds every path's edge ids back to back. Path p (in
// flattened order: all paths of guest edge 0, then guest edge 1, ...)
// occupies ids[pathOff[p]:pathOff[p+1]]; guest edge i owns the
// flattened paths edgeOff[i]..edgeOff[i+1]. So guest edge i's ids are
// the contiguous range ids[pathOff[edgeOff[i]]:pathOff[edgeOff[i+1]]].
type routeCache struct {
	fp      uint64  // fingerprint of the embedding the cache was built from
	ids     []int32 // arena of dense host-edge ids, all paths concatenated
	pathOff []int32 // len totalPaths+1; per-path extents into ids
	edgeOff []int32 // len M+1; per-guest-edge extents into pathOff
	maxLen  int     // longest path, in edges
}

// rcMu guards the rc pointer on every Embedding. A single package-level
// mutex (rather than a field) keeps Embedding free of lock state so
// callers may still copy it by value; the critical sections are
// pointer-sized, so contention is irrelevant.
var rcMu sync.Mutex

// fingerprint hashes everything the route cache depends on (FNV-1a
// over host dimension, vertex map, and path structure + contents), so
// in-place mutation of a path between metric calls is detected and the
// cache rebuilt. The header (host dimension, vertex map, guest-edge
// count) is one serial chain. The guest edges are hashed in blocks of
// fpBlockEdges, and the block hashes are combined by a wrapping sum, so
// the value does not depend on how many workers ran. One block, or
// GOMAXPROCS 1, hashes inline and allocates nothing; more blocks fan
// out through parallelFor. The walk is linear in the total path length.
func (e *Embedding) fingerprint() uint64 {
	h := fnvMix(fnvOffset, uint64(e.Host.Dims()))
	h = fnvMix(h, uint64(len(e.VertexMap)))
	for _, v := range e.VertexMap {
		h = fnvMix(h, uint64(v))
	}
	m := len(e.Paths)
	h = fnvMix(h, uint64(m))
	blocks := (m + fpBlockEdges - 1) / fpBlockEdges
	var sum uint64
	if blocks <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for b := 0; b < blocks; b++ {
			sum += e.fpBlock(b)
		}
	} else {
		var total atomic.Uint64
		parallelFor(blocks, 1, func(lo, hi int) {
			var s uint64
			for b := lo; b < hi; b++ {
				s += e.fpBlock(b)
			}
			total.Add(s)
		})
		sum = total.Load()
	}
	return fnvMix(h, sum)
}

// fpBlockEdges is the number of guest edges one fingerprint block
// hashes. The blocks, not the workers, define the value, so it does not
// depend on GOMAXPROCS.
const fpBlockEdges = 4096

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix is one FNV-1a step.
func fnvMix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

// fpBlock hashes block b of the guest edges: per guest edge its path
// count, then per path its node count and nodes. The chain starts from
// the offset basis mixed with b, so that blocks of equal contents hash
// differently and the sum of the block hashes still changes when two
// blocks exchange their contents.
func (e *Embedding) fpBlock(b int) uint64 {
	h := fnvMix(fnvOffset, uint64(b))
	for _, ps := range e.Paths[b*fpBlockEdges : min((b+1)*fpBlockEdges, len(e.Paths))] {
		h = fnvMix(h, uint64(len(ps)))
		for _, p := range ps {
			h = fnvMix(h, uint64(len(p)))
			for _, v := range p {
				h = fnvMix(h, uint64(v))
			}
		}
	}
	return h
}

// routes returns the embedding's dense route form, rebuilding it if the
// embedding changed since the last metric call. Errors are reported in
// the same "embedding: guest edge %d path %d: ..." form Width has
// always used. Safe for concurrent use; a race between two builders
// costs a duplicate build, never corruption.
func (e *Embedding) routes() (*routeCache, error) {
	fp := e.fingerprint()
	rcMu.Lock()
	rc := e.rc
	rcMu.Unlock()
	if rc != nil && rc.fp == fp {
		return rc, nil
	}
	rc, err := buildRoutes(e)
	if err != nil {
		return nil, err
	}
	rc.fp = fp
	rcMu.Lock()
	e.rc = rc
	rcMu.Unlock()
	return rc, nil
}

func buildRoutes(e *Embedding) (*routeCache, error) {
	m := len(e.Paths)
	edgeOff := make([]int32, m+1)
	totalPaths := 0
	for i, ps := range e.Paths {
		totalPaths += len(ps)
		edgeOff[i+1] = int32(totalPaths)
	}
	pathOff := make([]int32, totalPaths+1)
	var total int64
	maxLen := 0
	p := 0
	for _, ps := range e.Paths {
		for _, path := range ps {
			l := len(path) - 1
			if l < 0 {
				l = 0 // empty path: caught below by the fill pass
			}
			total += int64(l)
			if l > maxLen {
				maxLen = l
			}
			p++
			pathOff[p] = int32(total)
		}
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("embedding: %d path edges exceed the dense id arena limit", total)
	}
	rc := &routeCache{
		ids:     make([]int32, total),
		pathOff: pathOff,
		edgeOff: edgeOff,
		maxLen:  maxLen,
	}
	// Fill and validate every path in parallel. On failure remember the
	// lowest flattened path index so the error is deterministic.
	bad := int64(totalPaths)
	badp := &bad
	parallelFor(totalPaths, 64, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			path := flatPath(e, edgeOff, p)
			if err := e.Host.FillPathEdgeIDs32(rc.ids[pathOff[p]:pathOff[p+1]], path); err != nil {
				atomicMin(badp, int64(p))
				return
			}
		}
	})
	if bad < int64(totalPaths) {
		p := int(bad)
		i := sort.Search(m, func(i int) bool { return edgeOff[i+1] > int32(p) })
		j := p - int(edgeOff[i])
		err := e.Host.FillPathEdgeIDs32(rc.ids[pathOff[p]:pathOff[p+1]], e.Paths[i][j])
		return nil, fmt.Errorf("embedding: guest edge %d path %d: %w", i, j, err)
	}
	return rc, nil
}

// flatPath returns the path with flattened index p.
func flatPath(e *Embedding, edgeOff []int32, p int) Path {
	i := sort.Search(len(e.Paths), func(i int) bool { return edgeOff[i+1] > int32(p) })
	return e.Paths[i][p-int(edgeOff[i])]
}

// RouteArena exposes the route cache behind every metric, for builders
// that turn an embedding's paths into netsim routes without copying:
// ids holds every path's dense directed host-edge ids back to back;
// flattened path p (all paths of guest edge 0, then of guest edge 1,
// ...) is ids[pathOff[p]:pathOff[p+1]], and guest edge i owns the
// flattened paths edgeOff[i] to edgeOff[i+1]-1. The slices are
// read-only. A change to e.Paths makes the next call build a fresh
// arena, so slices handed out earlier keep their contents. Errors name
// the first bad path, as Width's do.
func (e *Embedding) RouteArena() (ids, pathOff, edgeOff []int32, err error) {
	rc, err := e.routes()
	if err != nil {
		return nil, nil, nil, err
	}
	return rc.ids, rc.pathOff, rc.edgeOff, nil
}

// edgeIDs returns the contiguous ids of guest edge i's paths.
func (rc *routeCache) edgeIDs(i int) []int32 {
	return rc.ids[rc.pathOff[rc.edgeOff[i]]:rc.pathOff[rc.edgeOff[i+1]]]
}

// pathIDs returns the ids of flattened path p, capped so an append
// to a route built on them copies instead of overwriting path p+1.
func (rc *routeCache) pathIDs(p int32) []int32 {
	return rc.ids[rc.pathOff[p]:rc.pathOff[p+1]:rc.pathOff[p+1]]
}

// parallelFor runs fn over [0,n) split into one contiguous chunk per
// worker. It stays serial when the range is smaller than minChunk or
// only one CPU is available, so tiny embeddings pay no goroutine tax.
func parallelFor(n, minChunk int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if minChunk > 0 && workers > n/minChunk {
		workers = n / minChunk
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func atomicMin(p *int64, v int64) {
	for {
		old := atomic.LoadInt64(p)
		if v >= old || atomic.CompareAndSwapInt64(p, old, v) {
			return
		}
	}
}

// Pooled scratch for metric passes. Slices come out all-zero and must
// go back all-zero: every user clears the entries it touched (with
// atomics when the pass was parallel over one shared slice), or the
// whole slice when that is cheaper, before returning them.

var countsPool = sync.Pool{New: func() any { return new([]int32) }}

// getCounts returns a zeroed []int32 of length n from the pool.
func getCounts(n int) *[]int32 {
	cp := countsPool.Get().(*[]int32)
	if cap(*cp) < n {
		*cp = make([]int32, n)
	}
	*cp = (*cp)[:n]
	return cp
}

func putCounts(cp *[]int32) { countsPool.Put(cp) }

// bitsetPool hands out zeroed bitsets. Bitsets of one bit per directed
// host edge and SynchronizedCost's larger (edge, step) bitsets come
// from separate pools, so neither size displaces the other.
type bitsetPool struct{ pool sync.Pool }

var (
	edgeBitsets bitsetPool // one bit per directed host edge: Width, StepUtilization
	keyBitsets  bitsetPool // (edge, step) keys: SynchronizedCost
)

// get returns a zeroed bitset covering n bits.
func (p *bitsetPool) get(n int) *[]uint64 {
	w := (n + 63) / 64
	bp, _ := p.pool.Get().(*[]uint64)
	if bp == nil {
		bp = new([]uint64)
	}
	if cap(*bp) < w {
		*bp = make([]uint64, w)
	}
	*bp = (*bp)[:w]
	return bp
}

func (p *bitsetPool) put(bp *[]uint64) { p.pool.Put(bp) }
