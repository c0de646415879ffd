package netsim

import (
	"math/rand"
	"testing"

	"multipath/internal/hypercube"
)

func TestBitReversalPermutation(t *testing.T) {
	p := BitReversalPermutation(4)
	if p[0b0001] != 0b1000 || p[0b1100] != 0b0011 || p[0] != 0 {
		t.Fatalf("bit reversal wrong: %v", p[:16])
	}
	// Involution.
	for v, w := range p {
		if p[w] != v {
			t.Fatalf("not an involution at %d", v)
		}
	}
}

func TestTransposePermutation(t *testing.T) {
	p := TransposePermutation(6)
	if p[0b000111] != 0b111000 {
		t.Fatalf("transpose wrong: %b", p[0b000111])
	}
	for v, w := range p {
		if p[w] != v {
			t.Fatalf("not an involution at %d", v)
		}
	}
}

// The §7 context made measurable: deterministic e-cube routing has
// adversarial permutations with Θ(√N) link congestion; Valiant's random
// intermediate flattens it to near the average.
func TestValiantBeatsECubeOnBitReversal(t *testing.T) {
	const n = 12
	q := hypercube.New(n)
	perm := BitReversalPermutation(n)
	direct := PermutationMessages(q, perm, 1)
	directLoad := MaxLinkLoad(direct)
	// E-cube on bit reversal: the middle link carries 2^{n/2} routes.
	if directLoad < 1<<uint(n/2-1) {
		t.Fatalf("e-cube load %d unexpectedly low (adversary broken?)", directLoad)
	}
	rng := rand.New(rand.NewSource(99))
	valiant := ValiantMessages(q, perm, 1, rng)
	valiantLoad := MaxLinkLoad(valiant)
	if valiantLoad*4 > directLoad {
		t.Errorf("valiant load %d not ≪ e-cube load %d", valiantLoad, directLoad)
	}
	// And the measured completion time follows the congestion.
	dr, err := Simulate(direct, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := Simulate(valiant, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Steps >= dr.Steps {
		t.Errorf("valiant %d steps not faster than e-cube %d", vr.Steps, dr.Steps)
	}
}

func TestValiantPreservesDelivery(t *testing.T) {
	q := hypercube.New(6)
	perm := TransposePermutation(6)
	rng := rand.New(rand.NewSource(5))
	msgs := ValiantMessages(q, perm, 4, rng)
	// Routes may be empty when src == mid == dst; count routed ones.
	r, err := Simulate(msgs, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredMsgs != len(msgs) {
		t.Errorf("delivered %d of %d", r.DeliveredMsgs, len(msgs))
	}
}

// §8.1 broadcast: splitting over Lemma 1's n cycles divides the
// bandwidth term by n.
func TestBroadcastOverHamiltonianCycles(t *testing.T) {
	const n, B = 6, 600
	q := hypercube.New(n)
	single, err := BroadcastMessages(q, B, false)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := BroadcastMessages(q, B, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || len(multi) != n {
		t.Fatalf("message counts %d/%d", len(single), len(multi))
	}
	sr, err := Simulate(single, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Simulate(multi, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	// (2^n - 2) hops: single pays + B - 1; multi pays + B/n - 1 on
	// edge-disjoint cycles (no contention).
	hops := q.Nodes() - 2
	if sr.Steps != hops+B {
		t.Errorf("single broadcast %d steps, want %d", sr.Steps, hops+B)
	}
	if mr.Steps != hops+B/n {
		t.Errorf("multi broadcast %d steps, want %d", mr.Steps, hops+B/n)
	}
	if mr.Steps >= sr.Steps {
		t.Errorf("no broadcast speedup: %d vs %d", mr.Steps, sr.Steps)
	}
}

func TestBroadcastOddDimension(t *testing.T) {
	q := hypercube.New(5)
	msgs, err := BroadcastMessages(q, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 { // 2⌊5/2⌋ directed cycles
		t.Fatalf("%d messages", len(msgs))
	}
	if _, err := Simulate(msgs, CutThrough); err != nil {
		t.Fatal(err)
	}
}
