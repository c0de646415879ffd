package multipath

// Benchmarks for the dense metric engine over the paper's embedding
// constructions at matched host sizes: Theorems 1 and 2 in Q_n for
// n ∈ {8, 12, 16}, and Theorem 4's induced cross product of Lemma 1's
// cycle decomposition at base a ∈ {4, 8} (whose X(G) lands in
// Q_8 / Q_16). Each benchmark builds the embedding once and
// measures warm verification — the route cache is hot, so these track
// the pooled parallel passes, not construction.

import (
	"fmt"
	"math/rand"
	"testing"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/hamdecomp"
	"multipath/internal/netsim"
	"multipath/internal/routing"
	"multipath/internal/traffic"
	"multipath/internal/xproduct"
)

// constructCases builds the benchmark embeddings, keyed "name/n=host".
func constructCases(b *testing.B) map[string]*core.Embedding {
	b.Helper()
	out := map[string]*core.Embedding{}
	for _, n := range []int{8, 12, 16} {
		e, err := cycles.Theorem1(n)
		if err != nil {
			b.Fatal(err)
		}
		out[fmt.Sprintf("theorem1/n=%d", n)] = e
	}
	for _, n := range []int{8, 12, 16} {
		e, err := cycles.Theorem2(n)
		if err != nil {
			b.Fatal(err)
		}
		out[fmt.Sprintf("theorem2/n=%d", n)] = e
	}
	// a = 6 is excluded: Q_6 decomposes into only 6 directed cycles, and
	// padding to the 8 moment labels Theorem 4 wants repeats automorphs,
	// which breaks the collision-free synchronized schedule.
	for _, a := range []int{4, 8} {
		e, err := theorem4Embedding(a)
		if err != nil {
			b.Fatal(err)
		}
		out[fmt.Sprintf("theorem4/n=%d", 2*a)] = e
	}
	return out
}

// theorem4Copies embeds each directed cycle of Q_a's Hamiltonian
// decomposition in Q_a: the copies Theorem 4 crosses.
func theorem4Copies(a int) ([]*core.Embedding, error) {
	dec, err := hamdecomp.Decompose(a)
	if err != nil {
		return nil, err
	}
	q := NewHypercube(a)
	var copies []*core.Embedding
	for _, cyc := range dec.Directed() {
		e, err := DirectCycleEmbedding(q, cyc)
		if err != nil {
			return nil, err
		}
		copies = append(copies, e)
	}
	return copies, nil
}

// theorem4Embedding builds Theorem 4's embedding of the induced cross
// product of Q_a's Hamiltonian cycle decomposition, hosted in Q_2a.
func theorem4Embedding(a int) (*core.Embedding, error) {
	copies, err := theorem4Copies(a)
	if err != nil {
		return nil, err
	}
	_, xe, err := xproduct.Theorem4(copies)
	return xe, err
}

func benchMetric(b *testing.B, fn func(e *core.Embedding) error) {
	cases := constructCases(b)
	for _, name := range []string{
		"theorem1/n=8", "theorem1/n=12", "theorem1/n=16",
		"theorem2/n=8", "theorem2/n=12", "theorem2/n=16",
		"theorem4/n=8", "theorem4/n=16",
	} {
		e := cases[name]
		if err := fn(e); err != nil { // warm the route cache
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild compares the arena-backed constructors against the
// retained slice-of-slices reference builders at n = 16. The arena
// path also adopts the dense route cache (the reference leaves it to
// the first metric call), so allocs/op is the headline number here;
// TestArenaBuildersAllocateLess asserts it at n = 8.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name     string
		arena    func() (*core.Embedding, error)
		retained func() (*core.Embedding, error)
	}{
		{"theorem1/n=16",
			func() (*core.Embedding, error) { return cycles.Theorem1(16) },
			func() (*core.Embedding, error) { return cycles.Theorem1Reference(16) }},
		{"theorem2/n=16",
			func() (*core.Embedding, error) { return cycles.Theorem2(16) },
			func() (*core.Embedding, error) { return cycles.Theorem2Reference(16) }},
	} {
		for _, v := range []struct {
			kind  string
			build func() (*core.Embedding, error)
		}{{"arena", c.arena}, {"retained", c.retained}} {
			b.Run(c.name+"/"+v.kind, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := v.build(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The arena-backed constructors must allocate less than their retained
// slice-of-slices golden models, which allocate per path and per hop.
func TestArenaBuildersAllocateLess(t *testing.T) {
	copies, err := theorem4Copies(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		arena, retained func() (*core.Embedding, error)
	}{
		{"theorem1/n=8",
			func() (*core.Embedding, error) { return cycles.Theorem1(8) },
			func() (*core.Embedding, error) { return cycles.Theorem1Reference(8) }},
		{"theorem2/n=8",
			func() (*core.Embedding, error) { return cycles.Theorem2(8) },
			func() (*core.Embedding, error) { return cycles.Theorem2Reference(8) }},
		{"theorem4/n=8",
			func() (*core.Embedding, error) { _, e, err := xproduct.Theorem4(copies); return e, err },
			func() (*core.Embedding, error) { _, e, err := xproduct.Theorem4Reference(copies); return e, err }},
	} {
		allocs := func(build func() (*core.Embedding, error)) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := build(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			})
		}
		if arena, retained := allocs(c.arena), allocs(c.retained); arena >= retained {
			t.Errorf("%s: arena build allocates %.0f times, retained %.0f", c.name, arena, retained)
		}
	}
}

// The template builders allocate a fixed number of times whatever the
// workload's size: routes are capped spans of one id arena (for an
// embedding's templates, its warm route cache) and the headers share
// one array. Each builder's count must match at n = 8 and n = 12 and
// stay small.
func TestTemplateBuildersAllocateO1(t *testing.T) {
	const limit = 16
	counts := func(n int) map[string]float64 {
		e, err := cycles.Theorem1(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Width(); err != nil { // warm the route cache
			t.Fatal(err)
		}
		q := e.Host
		pairs := routing.PermutationPairs(netsim.RandomPermutation(rand.New(rand.NewSource(1)), q.Nodes()))
		out := map[string]float64{}
		measure := func(name string, build func() error) {
			out[name] = testing.AllocsPerRun(4, func() {
				if err := build(); err != nil {
					t.Fatalf("n=%d %s: %v", n, name, err)
				}
			})
		}
		measure("WidthPathMessages", func() error { _, err := traffic.WidthPathMessages(e, 16); return err })
		measure("PathTemplates", func() error { _, _, err := traffic.PathTemplates(e, nil, 1); return err })
		measure("PPacketCosts", func() error { _, err := e.PPacketCosts([]int{1, 2}); return err })
		for _, s := range []routing.Strategy{
			routing.NewDimOrder(q), routing.NewValiant(q), routing.NewMinimalOblivious(q), routing.NewAdaptive(q),
		} {
			measure("Templates/"+s.Name(), func() error { _, err := routing.Templates(s, q, pairs, 4, 1); return err })
		}
		return out
	}
	small, large := counts(8), counts(12)
	for name, a := range small {
		if b := large[name]; a != b || a > limit {
			t.Errorf("%s: %v allocations at n = 8, %v at n = 12; want equal and at most %d", name, a, b, limit)
		} else {
			t.Logf("%s: %v allocations", name, a)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	benchMetric(b, func(e *core.Embedding) error { return e.Validate() })
}

func BenchmarkWidth(b *testing.B) {
	benchMetric(b, func(e *core.Embedding) error {
		_, err := e.Width()
		return err
	})
}

func BenchmarkSynchronizedCost(b *testing.B) {
	benchMetric(b, func(e *core.Embedding) error {
		_, err := e.SynchronizedCost()
		return err
	})
}

func BenchmarkPPacketCost(b *testing.B) {
	benchMetric(b, func(e *core.Embedding) error {
		_, err := e.PPacketCost(4)
		return err
	})
}
