package fft

import (
	"math"
	"math/rand"
	"testing"

	"multipath/internal/ccc"
	"multipath/internal/netsim"
)

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestTransformMatchesDirectDFT(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := randomSignal(n, int64(n))
		got, err := Transform(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := DirectDFT(x)
		if e := MaxError(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestTransformImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	got, err := Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("X[%d] = %v", k, v)
		}
	}
}

func TestTransformConstant(t *testing.T) {
	// DFT of a constant is an impulse of magnitude N at k = 0.
	x := make([]complex128, 32)
	for i := range x {
		x[i] = 1
	}
	got, err := Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(got[0])-32) > 1e-9 {
		t.Errorf("X[0] = %v", got[0])
	}
	for k := 1; k < 32; k++ {
		if math.Abs(real(got[k])) > 1e-9 || math.Abs(imag(got[k])) > 1e-9 {
			t.Errorf("X[%d] = %v", k, got[k])
		}
	}
}

func TestTransformRejectsNonPow2(t *testing.T) {
	if _, err := Transform(make([]complex128, 12)); err == nil {
		t.Error("length 12 accepted")
	}
	if _, err := Transform(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestPlanAccounting(t *testing.T) {
	p := Plan(6)
	if p.Levels != 6 || p.ValuesPerLevel != 1 || p.TotalExchanges != 6*64 {
		t.Errorf("plan %+v", p)
	}
}

// The FFT's communication maps exactly onto the Lemma 9 large-copy
// embedding: stage ℓ's exchanges are the dimension-ℓ links, which the
// embedding's FFT cross-edges cover with congestion 1. Simulating all
// n stages back-to-back completes in n pipelined steps.
func TestFFTCommunicationOnLargeCopyEmbedding(t *testing.T) {
	const n = 6
	e, err := ccc.LargeCopyFFT(n)
	if err != nil {
		t.Fatal(err)
	}
	// One message per cross edge (a value exchange), one flit each.
	var msgs []*netsim.Message
	for _, ps := range e.Paths {
		ids := make([]int32, len(ps[0])-1)
		if err := e.Host.FillPathEdgeIDs32(ids, ps[0]); err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			continue // straight edge: intra-node
		}
		msgs = append(msgs, &netsim.Message{Route: ids, Flits: 1})
	}
	r, err := netsim.Simulate(msgs, netsim.CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	// Congestion 1: every exchange of every level fits in one step per
	// level... and since the levels use disjoint dimensions, all fire
	// in a single step under the unit-capacity model.
	if r.Steps != 1 {
		t.Errorf("all FFT exchanges took %d steps, want 1 (congestion 1)", r.Steps)
	}
	if r.FlitsMoved != n<<uint(n) {
		t.Errorf("%d exchanges, want %d", r.FlitsMoved, n<<uint(n))
	}
}

func BenchmarkTransform(b *testing.B) {
	x := randomSignal(1024, 1)
	b.SetBytes(1024 * 16)
	for i := 0; i < b.N; i++ {
		if _, err := Transform(x); err != nil {
			b.Fatal(err)
		}
	}
}
