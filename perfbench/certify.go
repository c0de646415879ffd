package main

import (
	"fmt"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/hamdecomp"
	"multipath/internal/hypercube"
	"multipath/internal/xproduct"
)

// construction is one of the paper's width-n embeddings of Q_16: the
// arena builder the workloads call, the retained builder that
// construct.retained_ratio compares it with, and the width and
// synchronized cost the paper's theorems give.
type construction struct {
	name      string
	build     func() (*core.Embedding, error)
	reference func() (*core.Embedding, error)
	width     int
	cost      int
	ppacket   []int // PPacketCosts(ppacketSweep), as BENCH_construct.json records
}

// ppacketSweep is the packet counts drain measures per construction.
var ppacketSweep = []int{1, 2, 4, 8}

var (
	theorem1 = construction{"T1", func() (*core.Embedding, error) { return cycles.Theorem1(16) },
		func() (*core.Embedding, error) { return cycles.Theorem1Reference(16) }, 9, 3, []int{1, 3, 3, 3}}
	theorem2 = construction{"T2", func() (*core.Embedding, error) { return cycles.Theorem2(16) },
		func() (*core.Embedding, error) { return cycles.Theorem2Reference(16) }, 8, 3, []int{3, 3, 3, 3}}
	theorem4 = construction{"T4", func() (*core.Embedding, error) { return buildTheorem4(8, xproduct.Theorem4) },
		func() (*core.Embedding, error) { return buildTheorem4(8, xproduct.Theorem4Reference) }, 8, 3, []int{3, 3, 3, 3}}
	constructions = []construction{theorem1, theorem2, theorem4}
)

// buildTheorem4 runs Theorem 4 on Q_a's Hamiltonian decomposition (host
// Q_2a), as the construction benchmark of cmd/mpbench does.
func buildTheorem4(a int, product func([]*core.Embedding) (*xproduct.InducedProduct, *core.Embedding, error)) (*core.Embedding, error) {
	dec, err := hamdecomp.Decompose(a)
	if err != nil {
		return nil, err
	}
	q := hypercube.New(a)
	var copies []*core.Embedding
	for _, cyc := range dec.Directed() {
		e, err := core.DirectCycleEmbedding(q, cyc)
		if err != nil {
			return nil, err
		}
		copies = append(copies, e)
	}
	_, e, err := product(copies)
	return e, err
}

// pathEdges is the number of host edges over all paths of e.
func pathEdges(e *core.Embedding) int64 {
	var n int64
	for _, ps := range e.Paths {
		for _, p := range ps {
			if len(p) > 1 {
				n += int64(len(p) - 1)
			}
		}
	}
	return n
}

// setupCertify: each round builds Theorems 1, 2 and 4 at Q_16 and
// verifies each (Validate, Width, SynchronizedCost). The constructions
// are deterministic, so the seed changes nothing here. Its flit-hops
// are those of the synchronized schedule SynchronizedCost steps
// through: one packet per path, one hop per step.
func setupCertify(int64) ([]op, error) {
	var ops []op
	for _, c := range constructions {
		var e *core.Embedding
		var edges int64
		ops = append(ops,
			op{"build/" + c.name, func(b *bench) error {
				var err error
				if e, err = call(b, "construct", c.name, c.build); err != nil {
					return err
				}
				edges = pathEdges(e)
				b.count("construct.path_edges", float64(edges))
				b.sum("%s paths=%d edges=%d", c.name, len(e.Paths), edges)
				return b.split("retained", c.name+"Reference", func() error {
					_, err := c.reference()
					return err
				})
			}},
			op{"validate/" + c.name, func(b *bench) error {
				b.count("verify.path_edges", float64(edges))
				_, err := call(b, "verify", "Validate", func() (struct{}, error) { return struct{}{}, e.Validate() })
				return err
			}},
			op{"width/" + c.name, func(b *bench) error {
				b.count("verify.path_edges", float64(edges))
				w, err := call(b, "verify", "Width", e.Width)
				if err != nil {
					return err
				}
				b.sum("%s width=%d", c.name, w)
				if w != c.width {
					return fmt.Errorf("%s width %d, the paper gives %d", c.name, w, c.width)
				}
				return nil
			}},
			op{"synccost/" + c.name, func(b *bench) error {
				b.count("verify.path_edges", float64(edges))
				cost, err := call(b, "verify", "SynchronizedCost", e.SynchronizedCost)
				if err != nil {
					return err
				}
				b.sum("%s synchronized_cost=%d", c.name, cost)
				if cost != c.cost {
					return fmt.Errorf("%s synchronized cost %d, the paper gives %d", c.name, cost, c.cost)
				}
				b.hops += edges
				return nil
			}},
		)
	}
	return ops, nil
}
