package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"multipath/internal/graph"
	"multipath/internal/hypercube"
)

// sweep builds, through buildParallel on the given workers, an
// embedding of Q_n's directed edges that crosses every directed host
// edge exactly once at every step below hops: path x, for the dense
// edge id x = u·n+d, starts at u and bounces hops times across
// dimension d, so it crosses (u,d) at the even steps and (u^2^d,d) at
// the odd ones. Each guest edge takes group consecutive paths (1 or n)
// and runs from the first path's source u to its neighbor across d,
// under the identity vertex map. So SynchronizedCost reads every key
// of an (edge, step) bitset of hops steps, and, at hops 1 and group n,
// Width reads every bit of an edge bitset: a bit a metric left set in
// a pooled bitset makes the next pass on the sweep report a violation.
func sweep(q *hypercube.Q, hops, group, workers int) (*Embedding, error) {
	n := q.Dims()
	g := graph.New(q.Nodes())
	vm := make([]hypercube.Node, q.Nodes())
	for v := range vm {
		vm[v] = hypercube.Node(v)
	}
	for x := 0; x < q.DirectedEdges(); x += group {
		u, d := x/n, x%n
		g.AddEdge(int32(u), int32(u^1<<d))
	}
	return buildParallel(q, g, vm, group, hops, workers, func(i int, a *Arena) error {
		for x := i * group; x < (i+1)*group; x++ {
			a.StartRoute(hypercube.Node(x / n))
			for t := 0; t < hops; t++ {
				a.StepDim(x % n)
			}
		}
		return nil
	})
}

// walk is one decoded path: a start node and the dimensions it crosses.
type walk struct {
	from hypercube.Node
	dims []int
}

// at returns the node the walk reaches after t hops.
func (w walk) at(t int) hypercube.Node {
	v := w.from
	for _, d := range w.dims[:t] {
		v ^= 1 << uint(d)
	}
	return v
}

// reach returns a walk of t hops across dimension d that ends at x,
// followed by the hops across dims.
func reach(x hypercube.Node, t, d int, dims ...int) walk {
	w := walk{from: x}
	if t%2 == 1 {
		w.from ^= 1 << uint(d)
	}
	for k := 0; k < t; k++ {
		w.dims = append(w.dims, d)
	}
	w.dims = append(w.dims, dims...)
	return w
}

// eulerDims returns the dimensions an Euler circuit of Q_n's directed
// edges crosses, starting at node 0.
func eulerDims(q *hypercube.Q) []int {
	tour, err := graph.EulerTour(q.Graph(), 0)
	if err != nil {
		panic(err)
	}
	dims := make([]int, len(tour))
	for k, v := range tour {
		dims[k] = bits.TrailingZeros32(uint32(v ^ tour[(k+1)%len(tour)]))
	}
	return dims
}

// byteReader hands out fuzz bytes as small integers, 0 once the input
// is used up.
type byteReader []byte

func (r *byteReader) next(n int) int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b) % n
}

// Violations decodeDense plants, one bit each in the input's third
// byte.
const (
	plantLong       = 1 << iota // a path of 65 to 104 hops
	plantFirstHop               // a new guest edge whose path shares a path's first hop
	plantLastHop                // a new guest edge colliding at the last hop of the longest path
	plantDiffLength             // a path of another length colliding with a path at its second hop
	plantShared                 // a path sharing an edge with a path of its own guest edge
	plantSelfRepeat             // a path crossing one of its own edges twice
	plantAll        = 1<<iota - 1
)

// decodeDense decodes a small embedding of Q_2 to Q_5, built through
// an Arena, from data. Guest edge i gets up to three paths; a base path
// of at most two hops bounces across the dimension of the next directed
// edge in id order (two bounces from distinct edges never collide in
// the synchronized schedule), a longer one is a walk across decoded
// dimensions. The first path always has two hops. The third byte
// plants violations (the plant constants).
func decodeDense(data []byte) (*Embedding, error) {
	r := byteReader(data)
	n := 2 + r.next(4)
	q := hypercube.New(n)
	m := 1 + r.next(48)
	plants := r.next(plantAll + 1)
	var edges [][]walk
	x := 0
	for i := 0; i < m; i++ {
		var ps []walk
		for j, np := 0, 1+r.next(3); j < np; j++ {
			u, d := x/n%q.Nodes(), x%n
			x++
			l := r.next(6)
			if i == 0 && j == 0 {
				l = 2
			}
			w := walk{from: hypercube.Node(u)}
			for t := 0; t < l; t++ {
				if l > 2 {
					d = r.next(n)
				}
				w.dims = append(w.dims, d)
			}
			ps = append(ps, w)
		}
		edges = append(edges, ps)
	}
	if plants&plantLong != 0 {
		l := 65 + r.next(40)
		var w walk
		if r.next(2) == 0 {
			// A stretch of an Euler circuit of the directed cube: on
			// Q_5 it crosses no directed edge twice.
			tour := eulerDims(q)
			off := r.next(len(tour))
			w.from = walk{0, tour}.at(off)
			for t := 0; t < l; t++ {
				w.dims = append(w.dims, tour[(off+t)%len(tour)])
			}
		} else {
			// A bounce from the next unused directed edge.
			w.from = hypercube.Node(x / n % q.Nodes())
			for t := 0; t < l; t++ {
				w.dims = append(w.dims, x%n)
			}
			x++
		}
		edges = append(edges, []walk{w})
	}
	// otherDim returns a decoded dimension other than d.
	otherDim := func(d int) int { return (d + 1 + r.next(n-1)) % n }
	// pick returns a decoded path of at least the given hops, and its
	// guest edge; the first path qualifies for up to two hops.
	pick := func(hops int) (int, walk) {
		var is []int
		var ws []walk
		for i, ps := range edges {
			for _, w := range ps {
				if len(w.dims) >= hops {
					is, ws = append(is, i), append(ws, w)
				}
			}
		}
		k := r.next(len(ws))
		return is[k], ws[k]
	}
	if plants&plantFirstHop != 0 {
		_, w := pick(1)
		edges = append(edges, []walk{{w.from, []int{w.dims[0], r.next(n)}[:1+r.next(2)]}})
	}
	if plants&plantLastHop != 0 {
		var long walk
		for _, ps := range edges {
			for _, w := range ps {
				if len(w.dims) > len(long.dims) {
					long = w
				}
			}
		}
		l := len(long.dims)
		d := long.dims[l-1]
		edges = append(edges, []walk{reach(long.at(l-1), l-1, otherDim(d), d)})
	}
	if plants&plantDiffLength != 0 {
		_, w := pick(2)
		d := w.dims[1]
		other := reach(w.at(1), 1, otherDim(d), d)
		if len(w.dims) == 2 {
			other.dims = append(other.dims, r.next(n))
		}
		edges = append(edges, []walk{other})
	}
	if plants&plantShared != 0 {
		i, w := pick(1)
		l := len(w.dims)
		d := w.dims[l-1]
		edges[i] = append(edges[i], reach(w.at(l-1), r.next(4), otherDim(d), d))
	}
	if plants&plantSelfRepeat != 0 {
		i := r.next(len(edges))
		d := r.next(n)
		edges[i] = append(edges[i], walk{hypercube.Node(r.next(q.Nodes())), []int{d, d, d}})
	}

	g := graph.New(2)
	a := NewArena(q)
	for _, ps := range edges {
		g.AddEdge(0, 1)
		a.BeginEdge()
		for _, w := range ps {
			a.RouteDims(w.from, w.dims...)
		}
	}
	return a.Finish(g, []hypercube.Node{0, hypercube.Node(q.Nodes() - 1)})
}

// checkDenseMetrics holds Width and SynchronizedCost, and their fast
// passes, to the references on the decoded embedding at GOMAXPROCS 1
// and 4. After each call a sweep of the same host must pass clean,
// which shows the pooled bitsets went back all-zero.
func checkDenseMetrics(t *testing.T, data []byte) {
	e, err := decodeDense(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	q := e.Host
	hostEdges := q.DirectedEdges()
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rc, err := e.routes()
			if err != nil {
				t.Fatalf("routes: %v", err)
			}

			w, err := e.Width()
			wRef, errRef := e.WidthReference()
			if w != wRef || errText(err) != errText(errRef) {
				t.Fatalf("GOMAXPROCS %d: Width = (%d, %v), reference (%d, %v)", procs, w, err, wRef, errRef)
			}
			if got := rc.overlaps(hostEdges); got != (errRef != nil) {
				t.Fatalf("GOMAXPROCS %d: overlaps = %v, reference error %v", procs, got, errRef)
			}
			clean, err := sweep(q, 1, q.Dims(), procs)
			if err != nil {
				t.Fatal(err)
			}
			if rc := clean.rc; rc.overlaps(hostEdges) {
				t.Fatalf("GOMAXPROCS %d: a Width bitset went back to the pool with bits set", procs)
			}
			if w, err := clean.Width(); w != q.Dims() || err != nil {
				t.Fatalf("GOMAXPROCS %d: sweep Width = (%d, %v), want %d", procs, w, err, q.Dims())
			}

			c, err := e.SynchronizedCost()
			cRef, errRef := e.SynchronizedCostReference()
			if c != cRef || errText(err) != errText(errRef) {
				t.Fatalf("GOMAXPROCS %d: SynchronizedCost = (%d, %v), reference (%d, %v)", procs, c, err, cRef, errRef)
			}
			if got := rc.collides(hostEdges); got != (errRef != nil) {
				t.Fatalf("GOMAXPROCS %d: collides = %v, reference error %v", procs, got, errRef)
			}
			hops := max(rc.maxLen, 1)
			clean, err = sweep(q, hops, 1, procs)
			if err != nil {
				t.Fatal(err)
			}
			if rc := clean.rc; rc.collides(hostEdges) {
				t.Fatalf("GOMAXPROCS %d: a SynchronizedCost bitset went back to the pool with bits set", procs)
			}
			if c, err := clean.SynchronizedCost(); c != hops || err != nil {
				t.Fatalf("GOMAXPROCS %d: sweep SynchronizedCost = (%d, %v), want %d", procs, c, err, hops)
			}
		}()
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// denseSeed is a fuzz seed: host Q_n, m guest edges, the plant bits,
// then pseudo-random bytes, small ones when short is set (base paths of
// at most two hops).
func denseSeed(n, m, plants int, seed int64, short bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{byte(n - 2), byte(m - 1), byte(plants)}
	for k := 0; k < 400; k++ {
		b := byte(rng.Intn(256))
		if short {
			b %= 3
		}
		data = append(data, b)
	}
	return data
}

// denseCases are the fuzz seeds, each pinned to the case it covers:
// whether Width succeeds, the step of the reference's first
// synchronized-schedule collision (0 for none), and the longest path.
var denseCases = []struct {
	name         string
	n, m, plants int
	seed         int64
	short        bool
	width        bool
	step, maxLen int
}{
	{"clean, enough guest edges for a parallel Width", 5, 40, 0, 0, true, true, 0, 2},
	{"clean path of 65 hops", 5, 40, plantLong, 4, true, true, 0, 65},
	{"collision at the first hop", 5, 40, plantFirstHop, 2, true, true, 1, 2},
	{"collision at the last hop of the longest path", 5, 40, plantLastHop, 1, true, true, 2, 2},
	{"collision at the last hop of a 67-hop path", 5, 8, plantLong | plantLastHop, 7, true, false, 67, 67},
	{"collision between paths of different lengths", 5, 40, plantDiffLength, 5, true, true, 2, 3},
	{"overlap within one guest edge at different steps", 5, 40, plantShared, 9, true, false, 0, 3},
	{"overlap within one guest edge at one step", 5, 40, plantShared, 6, true, false, 2, 2},
	{"path crossing its own edge twice", 5, 40, plantSelfRepeat, 1, true, false, 0, 3},
	{"every plant", 5, 40, plantAll, 1, true, false, 2, 67},
	{"every plant on random walks", 3, 12, plantAll, 1, false, false, 2, 93},
	{"one guest edge", 2, 1, 0, 1, true, true, 0, 2},
}

// TestDenseMetricsSeeds checks that each fuzz seed still plants the
// case it is meant to cover; FuzzDenseMetrics runs them.
func TestDenseMetricsSeeds(t *testing.T) {
	for _, c := range denseCases {
		e, err := decodeDense(denseSeed(c.n, c.m, c.plants, c.seed, c.short))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, werr := e.WidthReference()
		step := 0
		if _, err := e.SynchronizedCostReference(); err != nil {
			fmt.Sscanf(err.Error(), "core: step %d:", &step)
		}
		if (werr == nil) != c.width || step != c.step || e.Dilation() != c.maxLen {
			t.Errorf("%s: Width error %v, first collision at step %d, longest path %d; want Width ok %v, step %d, longest %d",
				c.name, werr, step, e.Dilation(), c.width, c.step, c.maxLen)
		}
	}
}

func FuzzDenseMetrics(f *testing.F) {
	for _, c := range denseCases {
		f.Add(denseSeed(c.n, c.m, c.plants, c.seed, c.short))
	}
	f.Fuzz(checkDenseMetrics)
}

// TestFingerprintAcrossBlocks holds the fingerprint stamped at
// assembly and fingerprint to one value on an embedding of six
// fingerprint blocks, the last partial, at every worker count, and
// checks that a change in any block, or an exchange of blocks, makes
// the next metric call rebuild the route cache.
func TestFingerprintAcrossBlocks(t *testing.T) {
	q := hypercube.New(11) // 22,528 guest edges: five full blocks and half of one
	m := q.DirectedEdges()
	if blocks := (m + fpBlockEdges - 1) / fpBlockEdges; blocks <= 3 || m%fpBlockEdges == 0 {
		t.Fatalf("%d guest edges in %d blocks: want more than three blocks, the last partial", m, blocks)
	}
	var want uint64
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e, err := sweep(q, 1, 1, procs)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.fingerprint(); e.rc.fp != got {
				t.Fatalf("GOMAXPROCS %d: adopted fingerprint %x, fingerprint %x", procs, e.rc.fp, got)
			}
			if procs == 1 {
				want = e.rc.fp
			} else if e.rc.fp != want {
				t.Fatalf("GOMAXPROCS %d: fingerprint %x, %x at GOMAXPROCS 1", procs, e.rc.fp, want)
			}
			adopted := e.rc
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
			if e.rc != adopted {
				t.Fatalf("GOMAXPROCS %d: Validate rebuilt an adopted cache", procs)
			}
		}()
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e, err := sweep(q, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := m - 1
	other := func(x int) hypercube.Node { // x's source's neighbor across another dimension
		n := q.Dims()
		return hypercube.Node(x/n ^ 1<<((x%n+1)%n))
	}
	for _, mut := range []struct {
		name   string
		change func()
	}{
		{"node in the first block", func() { e.Paths[0][0][1] = other(0) }},
		{"node in the last, partial block", func() { e.Paths[last][0][1] = other(last) }},
		{"path sets exchanged across blocks", func() {
			e.Paths[1], e.Paths[last-1] = e.Paths[last-1], e.Paths[1]
		}},
		{"two whole blocks exchanged", func() {
			first, second := e.Paths[:fpBlockEdges], e.Paths[fpBlockEdges:2*fpBlockEdges]
			for i := range first {
				first[i], second[i] = second[i], first[i]
			}
		}},
	} {
		before := e.rc
		mut.change()
		if w, err := e.Width(); w != 1 || err != nil {
			t.Fatalf("%s: Width = (%d, %v), want 1", mut.name, w, err)
		}
		if e.rc == before {
			t.Errorf("%s: Width kept the stale route cache", mut.name)
		}
		if fp := e.fingerprint(); e.rc.fp != fp {
			t.Errorf("%s: rebuilt cache fingerprint %x, embedding %x", mut.name, e.rc.fp, fp)
		}
	}
}
