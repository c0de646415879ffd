package multipath

// One benchmark per experiment in DESIGN.md's index. Each bench
// measures the dominant operation of its experiment; the full tables
// in EXPERIMENTS.md are regenerated by cmd/mpbench.

import (
	"fmt"
	"math/rand"
	"testing"

	"multipath/internal/ccc"
	"multipath/internal/cycles"
	"multipath/internal/grid"
	"multipath/internal/hamdecomp"
	"multipath/internal/netsim"
	"multipath/internal/traffic"
	"multipath/internal/xproduct"
)

// E1 (Figure 1, §2): the Gray-code baseline moving m packets per edge.
func BenchmarkE1GrayCodeBaseline(b *testing.B) {
	e, err := cycles.GrayCode(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := e.PPacketCost(m)
				if err != nil || c != m {
					b.Fatalf("cost %d err %v", c, err)
				}
			}
		})
	}
}

// E2 (Theorem 1): constructing and verifying the width-⌊n/2⌋ cycle.
func BenchmarkE2Theorem1(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := cycles.Theorem1(n)
				if err != nil {
					b.Fatal(err)
				}
				if c, err := e.SynchronizedCost(); err != nil || c != 3 {
					b.Fatalf("cost %d err %v", c, err)
				}
			}
		})
	}
}

// E3 (Theorem 2): the load-2 full-utilization embedding.
func BenchmarkE3Theorem2(b *testing.B) {
	for _, n := range []int{8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := cycles.Theorem2(n)
				if err != nil {
					b.Fatal(err)
				}
				if c, err := e.SynchronizedCost(); err != nil || c != 3 {
					b.Fatalf("cost %d err %v", c, err)
				}
			}
		})
	}
}

// E4 (Lemma 3): width verification against the counting bound.
func BenchmarkE4Bounds(b *testing.B) {
	e, err := cycles.Theorem2(8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		w, err := e.Width()
		if err != nil {
			b.Fatal(err)
		}
		if w > cycles.WidthBound(8) {
			b.Fatalf("width %d exceeds bound", w)
		}
	}
}

// E5 (§2/§8.3): the grid relaxation communication phase by simulation.
func BenchmarkE5GridRelax(b *testing.B) {
	e, err := cycles.Theorem1(8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		msgs, err := traffic.WidthPathMessages(e, 32)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netsim.Simulate(msgs, netsim.CutThrough); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 (Corollaries 1–2): grid cross products and squaring.
func BenchmarkE6Grids(b *testing.B) {
	b.Run("cross-product-16x16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := grid.CrossProduct([]int{16, 16}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("squaring-4x256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := grid.NewSquaring(4, 256)
			if err != nil {
				b.Fatal(err)
			}
			_ = s.MaxDilation()
		}
	})
}

// E7 (Lemma 1/Corollary 3): the Hamiltonian decomposition substrate.
func BenchmarkE7HamDecomp(b *testing.B) {
	for _, n := range []int{10, 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hamdecomp.Decompose(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8 (Lemma 4): the GHR CCC embedding.
func BenchmarkE8GHR(b *testing.B) {
	for _, n := range []int{8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ccc.GHREmbed(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9 (Theorem 3): the n-copy CCC embedding and its congestion audit.
func BenchmarkE9MultiCopyCCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc, err := ccc.Theorem3(8)
		if err != nil {
			b.Fatal(err)
		}
		c, err := mc.EdgeCongestion()
		if err != nil || c > 2 {
			b.Fatalf("congestion %d err %v", c, err)
		}
	}
}

// E10 (Theorem 4): the induced cross product of Lemma 1's cycles.
func BenchmarkE10InducedProduct(b *testing.B) {
	dec, err := hamdecomp.Decompose(4)
	if err != nil {
		b.Fatal(err)
	}
	q := NewHypercube(4)
	var copies []*Embedding
	for _, cyc := range dec.Directed() {
		e, err := cycleEmbedding(q, cyc)
		if err != nil {
			b.Fatal(err)
		}
		copies = append(copies, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := xproduct.Theorem4(copies); err != nil {
			b.Fatal(err)
		}
	}
}

// E11 (Theorem 5, §6.2): tree embeddings.
func BenchmarkE11Trees(b *testing.B) {
	b.Run("cbt-m2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xproduct.Theorem5(2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arbitrary-14", func(b *testing.B) {
		tree := RandomBinaryTree(14, 5)
		for i := 0; i < b.N; i++ {
			if _, err := xproduct.ArbitraryTree(2, tree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E12 (§7): bit-serial permutation routing, store-and-forward vs the
// split transfer on the CCC copies.
func BenchmarkE12Wormhole(b *testing.B) {
	mc, err := ccc.Theorem3(4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	perm := netsim.RandomPermutation(rng, mc.Host.Nodes())
	b.Run("store-and-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msgs := netsim.PermutationMessages(mc.Host, perm, 64)
			if _, err := netsim.Simulate(msgs, netsim.StoreAndForward); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ccc-copies", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msgs, err := traffic.MultiCopyCCCMessages(mc, 4, perm, 64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := netsim.Simulate(msgs, netsim.CutThrough); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E13 (§1, [22]): IDA over the disjoint paths.
func BenchmarkE13IDA(b *testing.B) {
	e, err := cycles.Theorem1(8)
	if err != nil {
		b.Fatal(err)
	}
	faults := NewFaultModel(e.Host.DirectedEdges(), 0.01, 3)
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, _, err := FaultTolerantSend(e, i%64, data, 3, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// E14 (Lemma 9): large-copy embeddings.
func BenchmarkE14LargeCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := ccc.LargeCopyCCC(8)
		if err != nil {
			b.Fatal(err)
		}
		if c, err := e.Congestion(); err != nil || c != 1 {
			b.Fatalf("congestion %d err %v", c, err)
		}
	}
}

// E15 (§8.2): the three embedding families on the same cycle workload.
func BenchmarkE15Comparison(b *testing.B) {
	multi, err := cycles.Theorem1(8)
	if err != nil {
		b.Fatal(err)
	}
	large, err := ccc.LargeCopyCycle(8)
	if err != nil {
		b.Fatal(err)
	}
	const m = 16
	b.Run("multi-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multi.PPacketCost(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("large-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := large.PPacketCost(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// cycleEmbedding is a small adapter for E10.
func cycleEmbedding(q *Hypercube, seq []Node) (*Embedding, error) {
	return DirectCycleEmbedding(q, seq)
}

// E16: ablation of the moment labeling.
func BenchmarkE16Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := cycles.Theorem1WithLabeler(8, cycles.PositionLabel)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.SynchronizedCost(); err == nil {
			b.Fatal("ablated labeler unexpectedly clean")
		}
	}
}

// E17: the three switching modes on one permutation.
func BenchmarkE17Switching(b *testing.B) {
	q := NewHypercube(8)
	rng := rand.New(rand.NewSource(11))
	perm := netsim.RandomPermutation(rng, q.Nodes())
	b.Run("wormhole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.SimulateWormhole(netsim.PermutationMessages(q, perm, 32)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cut-through", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Simulate(netsim.PermutationMessages(q, perm, 32), netsim.CutThrough); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store-and-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Simulate(netsim.PermutationMessages(q, perm, 32), netsim.StoreAndForward); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The whole sweep as one SimulateBatch call: the buffered modes run
	// concurrently on pooled engines.
	b.Run("batch-both-buffered", func(b *testing.B) {
		msgs := netsim.PermutationMessages(q, perm, 32)
		jobs := []netsim.BatchJob{
			{Msgs: msgs, Mode: netsim.CutThrough},
			{Msgs: msgs, Mode: netsim.StoreAndForward},
		}
		for i := 0; i < b.N; i++ {
			if _, err := netsim.SimulateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E18: adversarial permutation routing.
func BenchmarkE18Valiant(b *testing.B) {
	q := NewHypercube(10)
	perm := netsim.BitReversalPermutation(10)
	rng := rand.New(rand.NewSource(99))
	b.Run("ecube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Simulate(netsim.PermutationMessages(q, perm, 4), netsim.CutThrough); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("valiant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Simulate(netsim.ValiantMessages(q, perm, 4, rng), netsim.CutThrough); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E19: broadcast over Hamiltonian cycles.
func BenchmarkE19Broadcast(b *testing.B) {
	q := NewHypercube(8)
	for i := 0; i < b.N; i++ {
		msgs, err := netsim.BroadcastMessages(q, 1024, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netsim.Simulate(msgs, netsim.CutThrough); err != nil {
			b.Fatal(err)
		}
	}
}

// E23 (§1 measured): one self-healing session over Theorem 1's guest
// edges per strategy, every transfer arriving at step 0, under a 5%
// Bernoulli link-fault schedule — single path with one reroute against
// k-of-n IDA dispersal.
func BenchmarkE23FaultTransport(b *testing.B) {
	e, err := cycles.Theorem1(8)
	if err != nil {
		b.Fatal(err)
	}
	sched := BernoulliFaults(e.Host.DirectedEdges(), 0.05, 7)
	trace := &ArrivalTrace{Arrivals: make([]Arrival, len(e.Paths))}
	for i := range trace.Arrivals {
		trace.Arrivals[i].Tmpl = int32(i)
	}
	for _, strat := range []struct {
		name string
		cfg  SelfHealConfig
	}{
		{"single", SelfHealConfig{Strategy: RerouteSelfHeal, MaxRetries: 1}},
		{"ida", SelfHealConfig{Strategy: IDASelfHeal, K: 4}},
	} {
		cfg := strat.cfg
		cfg.Mode, cfg.Flits, cfg.Faults = CutThrough, 8, sched
		b.Run(strat.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := SelfHealSend(e, nil, trace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.DeliveredFraction == 0 {
					b.Fatal("nothing delivered")
				}
			}
		})
	}
}
