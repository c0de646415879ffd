package routing

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// checkWalk asserts that ids is a valid src→dst walk over dense
// directed edge ids: each id leaves the current node, and the walk
// ends at dst. Returns the hop count.
func checkWalk(t *testing.T, q *hypercube.Q, src, dst hypercube.Node, ids []int32) int {
	t.Helper()
	cur := src
	for i, id := range ids {
		if id < 0 || int(id) >= q.DirectedEdges() {
			t.Fatalf("hop %d: edge id %d outside [0,%d)", i, id, q.DirectedEdges())
		}
		e := q.EdgeOf(int(id))
		if e.From != cur {
			t.Fatalf("hop %d: edge %d leaves node %d, walk is at %d", i, id, e.From, cur)
		}
		cur = e.To()
	}
	if cur != dst {
		t.Fatalf("walk ends at %d, want %d (route %v)", cur, dst, ids)
	}
	return len(ids)
}

func strategies(q *hypercube.Q) []Strategy {
	return []Strategy{NewDimOrder(q), NewValiant(q), NewMinimalOblivious(q), NewAdaptive(q)}
}

// Every strategy's route is a valid src→dst walk; the minimal
// strategies use exactly Hamming-distance hops and Valiant at most 2n.
func TestRoutesAreValidWalks(t *testing.T) {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(7))
	for _, s := range strategies(q) {
		for trial := 0; trial < 200; trial++ {
			src := hypercube.Node(rng.Intn(q.Nodes()))
			dst := hypercube.Node(rng.Intn(q.Nodes()))
			hops := checkWalk(t, q, src, dst, s.Route(nil, src, dst, rng))
			dist := bits.OnesCount32(src ^ dst)
			switch s.Name() {
			case "valiant":
				if hops > 2*q.Dims() {
					t.Errorf("%s %d→%d: %d hops > 2n", s.Name(), src, dst, hops)
				}
			default:
				if hops != dist {
					t.Errorf("%s %d→%d: %d hops, want Hamming distance %d", s.Name(), src, dst, hops, dist)
				}
			}
		}
	}
}

// Bit-identity regression (template provenance vs engine semantics):
// DimOrder templates rebuild netsim.PermutationMessages route for
// route, and simulating either set gives identical results — attaching
// the strategy layer changes nothing about the engine.
func TestDimOrderBitIdenticalToPermutationMessages(t *testing.T) {
	q := hypercube.New(6)
	perm := netsim.RandomPermutation(rand.New(rand.NewSource(3)), q.Nodes())
	want := netsim.PermutationMessages(q, perm, 4)
	got, err := Templates(NewDimOrder(q), q, PermutationPairs(perm), 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d templates, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Route, want[i].Route) && !(len(got[i].Route) == 0 && len(want[i].Route) == 0) {
			t.Fatalf("msg %d: route %v, want %v", i, got[i].Route, want[i].Route)
		}
		if got[i].Flits != want[i].Flits {
			t.Fatalf("msg %d: flits %d, want %d", i, got[i].Flits, want[i].Flits)
		}
	}
	for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
		rw, err := netsim.Simulate(want, mode)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := netsim.Simulate(got, mode)
		if err != nil {
			t.Fatal(err)
		}
		if *rw != *rg {
			t.Errorf("%v: strategy-built run diverged: %+v vs %+v", mode, rg, rw)
		}
	}
}

// Bit-identity regression: Valiant with the historical rng draw order
// rebuilds netsim.ValiantMessages from the same seed.
func TestValiantBitIdenticalToValiantMessages(t *testing.T) {
	q := hypercube.New(6)
	perm := netsim.RandomPermutation(rand.New(rand.NewSource(4)), q.Nodes())
	const seed = 42
	want := netsim.ValiantMessages(q, perm, 3, rand.New(rand.NewSource(seed)))
	got, err := Templates(NewValiant(q), q, PermutationPairs(perm), 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Route, want[i].Route) && !(len(got[i].Route) == 0 && len(want[i].Route) == 0) {
			t.Fatalf("msg %d: route %v, want %v", i, got[i].Route, want[i].Route)
		}
		// Valiant outgrows the arena's first size, so this also checks
		// the spans taken after the regrowth: each is capped.
		if cap(got[i].Route) != len(got[i].Route) {
			t.Fatalf("msg %d: route capacity %d past its %d ids", i, cap(got[i].Route), len(got[i].Route))
		}
	}
}

// Templates is replayable: the same (strategy state, pairs, flits,
// seed) builds identical template sets; a different seed moves the
// randomized ones.
func TestTemplatesReplayable(t *testing.T) {
	q := hypercube.New(5)
	perm := netsim.RandomPermutation(rand.New(rand.NewSource(5)), q.Nodes())
	pairs := PermutationPairs(perm)
	for _, mk := range []func() Strategy{
		func() Strategy { return NewDimOrder(q) },
		func() Strategy { return NewValiant(q) },
		func() Strategy { return NewMinimalOblivious(q) },
		func() Strategy { return NewAdaptive(q) },
	} {
		a, err := Templates(mk(), q, pairs, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Templates(mk(), q, pairs, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed built different templates", mk().Name())
		}
	}
}

// Templates rejects degenerate flit counts and out-of-range pairs.
func TestTemplatesRejectsBadInput(t *testing.T) {
	q := hypercube.New(4)
	s := NewDimOrder(q)
	for _, flits := range []int{0, -3} {
		if _, err := Templates(s, q, []Pair{{0, 1}}, flits, 1); err == nil {
			t.Errorf("flits=%d accepted", flits)
		}
	}
	if _, err := Templates(s, q, []Pair{{0, 1 << 10}}, 1, 1); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// MinimalOblivious's load accounting spreads a repeated demand across
// all minimal routes: routing the same (src, dst) pair n! times would
// be uniform, but it suffices that the per-link load of the first hop
// stays balanced — after k·n routes of one pair at distance n, every
// outgoing differing-dimension link at src has carried exactly k.
func TestMinimalObliviousLoadBalances(t *testing.T) {
	q := hypercube.New(4)
	m := NewMinimalOblivious(q)
	rng := rand.New(rand.NewSource(9))
	src, dst := hypercube.Node(0), hypercube.Node(0b1111)
	const rounds = 12
	for i := 0; i < rounds*4; i++ {
		checkWalk(t, q, src, dst, m.Route(nil, src, dst, rng))
	}
	for d := 0; d < 4; d++ {
		if l := m.load[q.EdgeID(src, d)]; l != rounds {
			t.Errorf("first-hop dim %d carried %d routes, want %d", d, l, rounds)
		}
	}
	m.Reset()
	for _, l := range m.load {
		if l != 0 {
			t.Fatal("Reset left residual load")
		}
	}
}

// Run aggregates windows correctly: conservation holds over the sums,
// every arrival is injected and delivered on a clean fabric, and the
// whole run replays bit-identically.
func TestRunWindowedConservationAndReplay(t *testing.T) {
	q := hypercube.New(5)
	perm := netsim.RandomPermutation(rand.New(rand.NewSource(6)), q.Nodes())
	pairs := PermutationPairs(perm)
	tr := &netsim.Trace{}
	for i := 0; i < 300; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / 2, Tmpl: int32(i % len(pairs))})
	}
	cfg := RunConfig{Flits: 3, Windows: 4, Seed: 21, Mode: netsim.CutThrough, WarmupFrac: 0.2}
	run := func() *RunResult {
		res, err := Run(NewAdaptive(q), q, pairs, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Windows != 4 {
		t.Fatalf("ran %d windows, want 4", a.Windows)
	}
	if a.Injected != len(tr.Arrivals) || a.DeliveredMsgs != len(tr.Arrivals) || a.FailedMsgs != 0 {
		t.Fatalf("injected %d delivered %d failed %d of %d arrivals",
			a.Injected, a.DeliveredMsgs, a.FailedMsgs, len(tr.Arrivals))
	}
	if a.FlitsMoved+a.DroppedFlits != a.InjectedHops {
		t.Fatalf("conservation violated: moved %d + dropped %d != injected hops %d",
			a.FlitsMoved, a.DroppedFlits, a.InjectedHops)
	}
	if b := run(); *a != *b {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

// SplitTrace partitions without loss and rebases each window to step 0.
func TestSplitTrace(t *testing.T) {
	tr := &netsim.Trace{}
	for i := 0; i < 17; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: 5 + 3*i, Tmpl: int32(i)})
	}
	chunks := SplitTrace(tr, 4)
	total := 0
	for _, c := range chunks {
		if len(c.Arrivals) > 0 && c.Arrivals[0].Step != 0 {
			t.Errorf("window not rebased: first step %d", c.Arrivals[0].Step)
		}
		total += len(c.Arrivals)
	}
	if total != len(tr.Arrivals) {
		t.Errorf("windows hold %d arrivals, want %d", total, len(tr.Arrivals))
	}
}
