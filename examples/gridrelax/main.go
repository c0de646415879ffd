// Grid relaxation (§2 and §8.3): an M × M grid relaxation is
// partitioned into blocks, one per hypercube node; every phase each
// node exchanges its block perimeter with its four neighbors. This
// example compares the three mappings of §8.3 analytically and then
// measures a real communication phase on the embedded process grid.
package main

import (
	"fmt"
	"log"

	"multipath"
	"multipath/internal/netsim"
)

func main() {
	const M, N = 4096, 16 // 4096² grid points on a 256-node hypercube

	// First, prove the decomposition computes the right thing: a small
	// blocked Jacobi run is bitwise identical to the serial sweep.
	hot := func(i, j int) float64 {
		if i == 0 {
			return 100
		}
		return 0
	}
	serial := multipath.NewRelaxation(64, hot).SerialJacobi(8)
	blocked, stats, err := multipath.NewRelaxation(64, hot).BlockedJacobi(8, 8)
	if err != nil {
		log.Fatal(err)
	}
	if !blocked.Equal(serial) {
		log.Fatal("blocked Jacobi diverged from serial reference")
	}
	fmt.Printf("blocked Jacobi (64², 8×8 blocks, 8 sweeps) == serial: ok; halo traffic %d values\n\n",
		stats.HaloValues)

	fmt.Printf("relaxation of a %dx%d grid on N²=%d processors (Q_8)\n\n", M, M, N*N)
	costs, err := multipath.CompareRelaxationMappings(M, N)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mapping             procs/node  traffic(points)  phase steps (model)")
	for _, c := range costs {
		fmt.Printf("%-18s  %10d  %15d  %19.0f\n",
			c.Kind.String(), c.ProcsPerNode, c.TrafficPoints, c.PhaseSteps)
	}

	// Measured: embed the N×N process grid with multiple paths and ship
	// M/N perimeter values per edge through the simulator. Relaxation
	// communicates in directed phases — one axis, one direction at a
	// time (the paper's §9 notes that overlapping phases is open) — so
	// measure each phase and sum the sweep.
	// A long axis embeds in Q_8 and gets width 5; the speedup per
	// phase is w/3, so wide subcubes are where multiple paths pay off.
	fmt.Println("\nmeasured directed phases (process grid 256x8, 256 values/edge):")
	g, err := multipath.GridEmbedding([]int{256, 8})
	if err != nil {
		log.Fatal(err)
	}
	const valuesPerEdge = M / N
	fmt.Println("  phase         width-1   multi-path   speedup")
	multiTotal, singleTotal := 0, 0
	for axis := 0; axis < 2; axis++ {
		for _, fwd := range []bool{true, false} {
			multi, err := netsim.Simulate(phaseMessages(g, axis, fwd, valuesPerEdge, false), netsim.CutThrough)
			if err != nil {
				log.Fatal(err)
			}
			single, err := netsim.Simulate(phaseMessages(g, axis, fwd, valuesPerEdge, true), netsim.CutThrough)
			if err != nil {
				log.Fatal(err)
			}
			multiTotal += multi.Steps
			singleTotal += single.Steps
			dir := "+"
			if !fwd {
				dir = "-"
			}
			fmt.Printf("  axis %d (%s)     %7d   %10d   %6.2fx\n",
				axis, dir, single.Steps, multi.Steps,
				float64(single.Steps)/float64(multi.Steps))
		}
	}
	fmt.Printf("  full sweep    %7d   %10d   %6.2fx\n",
		singleTotal, multiTotal, float64(singleTotal)/float64(multiTotal))
	fmt.Println("\nThe multi-path mapping turns each Θ(M/N) phase into Θ(M/(N·w)) —")
	fmt.Println("the §2 speedup of the paper, here measured end to end.")
}

// phaseMessages ships the perimeter values of one directed phase, over
// all paths or only the direct one.
func phaseMessages(g *multipath.GridMultiPath, axis int, forward bool, flits int, singleOnly bool) []*netsim.Message {
	var msgs []*netsim.Message
	for i, ps := range g.Paths {
		if g.EdgeAxis[i] != axis || g.EdgeForward[i] != forward {
			continue
		}
		if singleOnly {
			ps = ps[:1]
		}
		w := len(ps)
		for j, p := range ps {
			f := flits / w
			if j < flits%w {
				f++
			}
			if f == 0 || len(p) < 2 {
				continue
			}
			ids := make([]int32, len(p)-1)
			if err := g.Host.FillPathEdgeIDs32(ids, p); err != nil {
				continue
			}
			msgs = append(msgs, &netsim.Message{Route: ids, Flits: f})
		}
	}
	return msgs
}
