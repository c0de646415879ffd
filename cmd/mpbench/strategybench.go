package main

import (
	"fmt"
	"sync"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/routing"
	"multipath/internal/traffic"
)

// E29: the routing strategy zoo raced against the paper's disjoint-path construction. Five
// contenders — deterministic dimension-order (e-cube), Valiant's
// two-phase randomized routing, minimal-oblivious with per-link load
// accounting, feedback-adaptive re-planning between measurement
// windows, and the paper-side multipath spreading each message over
// min(n, flits) of its n edge-disjoint paths — run the same Poisson
// arrival traces over five named traffic patterns on clean and
// Bernoulli-degraded fabrics. Offered load is normalized per (host,
// pattern) to the dimension-order strategy's clean closed-loop drain
// capacity, so one load axis compares all five contenders. Every
// point is conservation-checked (flits moved + dropped == injected
// hops) and the first point of every curve is re-run from its seed and
// required to reproduce bit-identically before the table is printed.
//
// All contenders see the identical window slicing (routing.SplitTrace
// into raceWindows windows); only the adaptive strategy uses the
// inter-window gap to re-plan on queue-depth feedback, and only it
// listens for dead links on the faulty fabric.

// Sweep parameters. The test package shrinks them so the regression
// gate stays fast.
var (
	raceDims    = []int{12, 16}
	raceFlits   = 16
	raceSources = 4096 // pattern pairs kept per point (stride-subsampled)
	raceLoads   = []float64{0.2, 0.5, 0.8, 1.1, 1.4}
	raceN       = 6000 // arrivals per load point
	raceSeed    = int64(29)
	raceWindows = 4
	raceFaultP  = 0.02 // Bernoulli permanent-fault probability per link
)

// raceStrategyNames is the canonical contender order of the race.
var raceStrategyNames = []string{"dimorder", "valiant", "minimal", "adaptive", "multipath"}

type racePoint struct {
	Load     float64
	Arrivals int
	Steps    int
	// Delivered and Failed count logical messages: for multipath a
	// message is delivered only when all its pieces are.
	Delivered int
	Failed    int
	// Throughput is delivered flit-hops per model step over the run.
	Throughput float64
	// Latency is steady-state (first 20% of each window's arrivals
	// excluded); multipath latency is per logical message, last piece in.
	Latency obsv.Summary
	// Conserved records the per-point flit-conservation check; a
	// violation aborts the whole measurement instead of reporting false.
	Conserved bool
}

type raceCurve struct {
	Strategy string
	Points   []racePoint
	// SaturationLoad is the largest swept load whose mean latency stays
	// within 3x the lowest-load mean; SaturationThroughput is that
	// point's delivered flit-hops per step.
	SaturationLoad       float64
	SaturationThroughput float64
	// Replayed records that the curve's first point was re-run from its
	// seed and reproduced bit-identically (a mismatch aborts the bench).
	Replayed bool
}

type raceFabric struct {
	Fabric string // "clean" or "faulty"
	// DeadLinks is the Bernoulli draw's actual failed-link count.
	DeadLinks int
	Curves    []raceCurve
}

type raceCase struct {
	Pattern string
	Dims    int
	Pairs   int
	// PairsFrom is the pattern's full pair count before the
	// deterministic stride subsample down to racePairs (equal to Pairs
	// when no subsampling happened).
	PairsFrom int
	// Capacity is the dimension-order clean closed-loop drain rate —
	// the shared normalizer behind every contender's load axis.
	Capacity     float64
	MeanFlitHops float64
	Fabrics      []raceFabric
}

// newRaceStrategy builds a fresh instance per point so stateful
// contenders (minimal, adaptive) start blind and every point is
// independently replayable from its seed.
func newRaceStrategy(name string, q *hypercube.Q) routing.Strategy {
	switch name {
	case "dimorder":
		return routing.NewDimOrder(q)
	case "valiant":
		return routing.NewValiant(q)
	case "minimal":
		return routing.NewMinimalOblivious(q)
	case "adaptive":
		return routing.NewAdaptive(q)
	}
	return nil
}

// racePairs subsamples a pattern's pair list down to raceSources with
// a deterministic stride, keeping the demand's structure (every kept
// pair is an original pair) while bounding per-point work.
func racePairs(pairs []routing.Pair) []routing.Pair {
	if len(pairs) <= raceSources {
		return pairs
	}
	stride := len(pairs) / raceSources
	out := make([]routing.Pair, raceSources)
	for i := range out {
		out[i] = pairs[i*stride]
	}
	return out
}

// runMultipathWindows runs the paper-side contender over the same
// window slicing as the strategies: each pair-level arrival expands
// into w = min(n, flits) piece arrivals on the pair's edge-disjoint
// paths, and the PerMessage callback folds piece completions back into
// logical messages (delivered iff every piece is, latency = last piece
// in). Returns summed engine counters plus the logical tallies.
func runMultipathWindows(q *hypercube.Q, pairs []routing.Pair, tr *netsim.Trace, sched netsim.LinkFaults, sink *obsv.Histogram) (*netsim.OpenLoopResult, int, int, error) {
	pieces, w, err := traffic.DisjointPathTemplates(q, pairs, raceFlits)
	if err != nil {
		return nil, 0, 0, err
	}
	agg := &netsim.OpenLoopResult{}
	delivered, failed := 0, 0
	for _, win := range routing.SplitTrace(tr, raceWindows) {
		nlog := len(win.Arrivals)
		if nlog == 0 {
			continue
		}
		exp := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, nlog*w)}
		arrStep := make([]int, nlog)
		for i, a := range win.Arrivals {
			arrStep[i] = a.Step
			for j := 0; j < w; j++ {
				exp.Arrivals = append(exp.Arrivals, netsim.Arrival{Step: a.Step, Tmpl: a.Tmpl*int32(w) + int32(j)})
			}
		}
		after := warmupCutoff(win)
		lastIn := make([]int, nlog)
		okPieces := make([]int, nlog)
		res, err := netsim.SimulateOpenLoop(pieces, exp.Source(), netsim.OpenLoopOpts{
			Mode:   netsim.CutThrough,
			Faults: sched,
			PerMessage: func(msg int32, arrival, done int, ok bool) {
				g := int(msg) / w
				if ok {
					okPieces[g]++
				}
				if done > lastIn[g] {
					lastIn[g] = done
				}
			},
		})
		if err != nil {
			return nil, 0, 0, fmt.Errorf("multipath window: %w", err)
		}
		for g := 0; g < nlog; g++ {
			if okPieces[g] == w {
				delivered++
				if arrStep[g] >= after {
					sink.Observe(lastIn[g] - arrStep[g])
				}
			} else {
				failed++
			}
		}
		agg.Steps += res.Steps
		agg.FlitsMoved += res.FlitsMoved
		agg.DeliveredMsgs += res.DeliveredMsgs
		agg.FailedMsgs += res.FailedMsgs
		agg.DroppedFlits += res.DroppedFlits
		agg.Injected += res.Injected
		agg.InjectedHops += res.InjectedHops
		agg.SkippedSteps += res.SkippedSteps
		if res.MaxLinkQueue > agg.MaxLinkQueue {
			agg.MaxLinkQueue = res.MaxLinkQueue
		}
		if res.MaxInFlight > agg.MaxInFlight {
			agg.MaxInFlight = res.MaxInFlight
		}
		agg.TimedOut = agg.TimedOut || res.TimedOut
	}
	return agg, delivered, failed, nil
}

// raceRunPoint measures one (strategy, load) point, enforcing the
// conservation invariant before anything is reported.
func raceRunPoint(q *hypercube.Q, name string, pairs []routing.Pair, tr *netsim.Trace, sched netsim.LinkFaults, load float64) (racePoint, error) {
	h := obsv.NewHistogram(1, 1<<14)
	pt := racePoint{Load: load, Arrivals: len(tr.Arrivals)}
	var (
		steps, moved, dropped, hops int
	)
	if name == "multipath" {
		res, delivered, failed, err := runMultipathWindows(q, pairs, tr, sched, h)
		if err != nil {
			return pt, err
		}
		pt.Delivered, pt.Failed = delivered, failed
		steps, moved, dropped, hops = res.Steps, res.FlitsMoved, res.DroppedFlits, res.InjectedHops
	} else {
		res, err := routing.Run(newRaceStrategy(name, q), q, pairs, tr, routing.RunConfig{
			Flits:      raceFlits,
			Windows:    raceWindows,
			Seed:       raceSeed,
			Mode:       netsim.CutThrough,
			Faults:     sched,
			WarmupFrac: 0.2,
			Sink:       h,
		})
		if err != nil {
			return pt, err
		}
		pt.Delivered, pt.Failed = res.DeliveredMsgs, res.FailedMsgs
		steps, moved, dropped, hops = res.Steps, res.FlitsMoved, res.DroppedFlits, res.InjectedHops
	}
	if moved+dropped != hops {
		return pt, fmt.Errorf("%s load=%g: conservation violated: moved %d + dropped %d != injected hops %d",
			name, load, moved, dropped, hops)
	}
	pt.Conserved = true
	pt.Steps = steps
	pt.Throughput = float64(moved) / float64(max(steps, 1))
	pt.Latency = h.Summarize()
	return pt, nil
}

// measureStrategyRace runs the E29 race once per process and caches
// it.
var measureStrategyRace = sync.OnceValues(func() ([]raceCase, error) {
	var cases []raceCase
	for _, n := range raceDims {
		q := hypercube.New(n)
		numLinks := q.DirectedEdges()
		for _, pattern := range traffic.Patterns {
			full, err := traffic.PatternPairs(q, pattern, raceSeed)
			if err != nil {
				return nil, fmt.Errorf("%s Q_%d: %w", pattern, n, err)
			}
			pairs := racePairs(full)
			// Shared load axis: the dimension-order contender's clean
			// closed-loop drain rate on this exact demand.
			base, err := routing.Templates(routing.NewDimOrder(q), q, pairs, raceFlits, raceSeed)
			if err != nil {
				return nil, err
			}
			drain, err := netsim.Simulate(base, netsim.CutThrough)
			if err != nil {
				return nil, fmt.Errorf("%s Q_%d drain: %w", pattern, n, err)
			}
			work := 0
			for _, m := range base {
				work += m.Flits * len(m.Route)
			}
			meanWork := float64(work) / float64(len(base))
			capacity := float64(drain.FlitsMoved) / float64(max(drain.Steps, 1))
			c := raceCase{
				Pattern:      pattern,
				Dims:         n,
				Pairs:        len(pairs),
				PairsFrom:    len(full),
				Capacity:     capacity,
				MeanFlitHops: meanWork,
			}
			sched := faults.Bernoulli(numLinks, raceFaultP, raceSeed)
			fabrics := []raceFabric{
				{Fabric: "clean"},
				{Fabric: "faulty", DeadLinks: sched.FaultyLinks()},
			}
			for fi := range fabrics {
				fab := &fabrics[fi]
				var lf netsim.LinkFaults
				if fab.Fabric == "faulty" {
					lf = sched
				}
				for _, name := range raceStrategyNames {
					curve := raceCurve{Strategy: name}
					for _, load := range raceLoads {
						lambda := load * capacity / meanWork
						tr, err := traffic.PoissonArrivals(raceSeed, lambda, raceN, len(pairs))
						if err != nil {
							return nil, err
						}
						pt, err := raceRunPoint(q, name, pairs, tr, lf, load)
						if err != nil {
							return nil, fmt.Errorf("%s Q_%d %s: %w", pattern, n, fab.Fabric, err)
						}
						curve.Points = append(curve.Points, pt)
					}
					// Seed replay: the first point must reproduce exactly.
					lambda0 := raceLoads[0] * capacity / meanWork
					tr0, err := traffic.PoissonArrivals(raceSeed, lambda0, raceN, len(pairs))
					if err != nil {
						return nil, err
					}
					again, err := raceRunPoint(q, name, pairs, tr0, lf, raceLoads[0])
					if err != nil {
						return nil, err
					}
					if again != curve.Points[0] {
						return nil, fmt.Errorf("%s Q_%d %s %s: replay diverged:\n%+v\n%+v",
							pattern, n, fab.Fabric, name, again, curve.Points[0])
					}
					curve.Replayed = true
					basePt := curve.Points[0].Latency.Mean
					for _, pt := range curve.Points {
						if basePt > 0 && pt.Latency.Mean <= 3*basePt {
							curve.SaturationLoad = pt.Load
							curve.SaturationThroughput = pt.Throughput
						}
					}
					fab.Curves = append(fab.Curves, curve)
				}
			}
			c.Fabrics = fabrics
			cases = append(cases, c)
		}
	}
	return cases, nil
})

// runE29 renders the race: one row per curve with its saturation point
// and the tail latency at the middle and top swept loads.
func runE29() (*table, error) {
	cases, err := measureStrategyRace()
	if err != nil {
		return nil, err
	}
	mid, top := len(raceLoads)/2, len(raceLoads)-1
	tab := &table{headers: []string{
		"pattern", "host", "fabric", "strategy", "sat.load", "sat.thpt",
		fmt.Sprintf("p99@%.1f", raceLoads[mid]), fmt.Sprintf("p99@%.1f", raceLoads[top]), "delivered",
	}}
	for _, c := range cases {
		host := fmt.Sprintf("Q_%d", c.Dims)
		for _, fab := range c.Fabrics {
			for _, cv := range fab.Curves {
				pTop := cv.Points[top]
				tab.addRow(
					c.Pattern, host, fab.Fabric, cv.Strategy,
					fmt.Sprintf("%.2f", cv.SaturationLoad),
					fmt.Sprintf("%.1f", cv.SaturationThroughput),
					fmt.Sprintf("%d", cv.Points[mid].Latency.P99),
					fmt.Sprintf("%d", pTop.Latency.P99),
					fmt.Sprintf("%d%%", 100*pTop.Delivered/max(pTop.Arrivals, 1)),
				)
			}
		}
		tab.note("%s Q_%d: %d pairs (of %d), capacity %.1f flit-hops/step (dimorder clean drain), mean %.1f flit-hops/msg.",
			c.Pattern, c.Dims, c.Pairs, c.PairsFrom, c.Capacity, c.MeanFlitHops)
	}
	tab.note("%d Poisson arrivals per point over %d measurement windows, %d flits/msg, cut-through; "+
		"load normalizes to the dimorder clean drain capacity so one axis compares all five contenders. "+
		"The faulty fabric draws permanent Bernoulli link faults at p=%.2g; only the adaptive strategy "+
		"re-plans on queue-depth feedback between windows and learns dead links. Multipath spreads each "+
		"message over min(n, flits) edge-disjoint paths (delivered = all pieces in). Every point is "+
		"conservation-checked and every curve's first point replayed bit-identically from its seed.",
		raceN, raceWindows, raceFlits, raceFaultP)
	return tab, nil
}
