package main

import (
	"fmt"
	"slices"
	"sync"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
)

// E26: open-loop latency-vs-offered-load curves on the Theorem 1 and
// Theorem 2 embeddings. On two traces of the largest host the engine
// (netsim.SimulateOpenLoop) is also checked bit-identical to the
// retained naive per-step baseline (SimulateOpenLoopReference) — same
// counters, same latency distribution.
//
// The traffic is a hotspot window: the disjoint-path templates of
// trafficEdges consecutive guest edges, not the whole cube. Driving the
// entire Q_16 link space to saturation would need arrival counts far
// beyond what a benchmark can inject (capacity is ~10^6 flits/step);
// the window keeps the sub-network's capacity small enough that a
// 20k-arrival sweep reaches genuine steady state on both sides of the
// saturation knee, while still exercising the cost-3 link sharing
// between adjacent edges' paths. Offered load ρ is normalized to the
// window's measured closed-loop capacity, so ρ = 1.0 nominally matches
// what the drained all-at-once run sustains.

// Sweep parameters. The test package shrinks them so the regression
// gate stays fast.
var (
	trafficDims  = []int{12, 16}
	trafficFlits = 16
	trafficEdges = 64 // guest edges in the hotspot window
	trafficLoads = []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0}
	trafficN     = 20000 // arrivals per load point
	trafficSeed  = int64(26)
	// trickleN/trickleRate: the low-rate reference trace where the leap
	// clock dominates — the naive baseline must iterate every quiescent
	// step while the engine jumps arrival to arrival.
	trickleN    = 2000
	trickleRate = 0.01
)

type trafficPoint struct {
	Load     float64
	Lambda   float64
	Arrivals int
	Steps    int
	// SkippedFrac is the fraction of model steps the leap clock never
	// iterated.
	SkippedFrac float64
	Delivered   int
	// Throughput is delivered flit-hops per model step over the run.
	Throughput float64
	// Latency summarizes steady-state message latency: arrivals during
	// the warm-up prefix (first 20% of arrivals) are excluded.
	Latency obsv.Summary
}

type trafficCase struct {
	Embedding string
	Dims      int
	Edges     int
	Templates int
	// Capacity is the hotspot window's closed-loop drain rate
	// (flit-hops per step with every template injected at step 0) — the
	// normalizer behind the load axis.
	Capacity     float64
	MeanFlitHops float64
	Points       []trafficPoint
	// SaturationLoad is the largest swept load whose mean latency stays
	// within 3x the lowest-load mean; SaturationThroughput is that
	// point's delivered flit-hops per step.
	SaturationLoad       float64
	SaturationThroughput float64
}

// trafficWindow cuts the hotspot window out of an embedding and builds
// its route templates.
func trafficWindow(emb *core.Embedding) (*core.Embedding, []*netsim.Message, error) {
	sub := *emb
	if len(sub.Paths) > trafficEdges {
		sub.Paths = sub.Paths[:trafficEdges]
	}
	tmpls, err := traffic.WidthPathMessages(&sub, trafficFlits)
	if err != nil {
		return nil, nil, err
	}
	if len(tmpls) == 0 {
		return nil, nil, fmt.Errorf("hotspot window built no templates")
	}
	return &sub, tmpls, nil
}

// trafficTrace draws the arrival trace for one load point under the
// given process. MMPP keeps the same mean rate as the Poisson process
// (equal expected dwell in a 0.4λ and a 1.6λ phase) so the load axis
// means the same thing for both.
func trafficTrace(process string, seed int64, lambda float64, count, ntmpl int) (*netsim.Trace, error) {
	switch process {
	case "poisson":
		return traffic.PoissonArrivals(seed, lambda, count, ntmpl)
	case "mmpp":
		return traffic.MMPPArrivals(seed, 0.4*lambda, 1.6*lambda, 200, count, ntmpl)
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want poisson or mmpp)", process)
	}
}

// warmupCutoff returns the MeasureAfter step excluding the first 20%
// of arrivals from the latency distribution.
func warmupCutoff(tr *netsim.Trace) int {
	if len(tr.Arrivals) == 0 {
		return 0
	}
	return tr.Arrivals[len(tr.Arrivals)/5].Step
}

// sameHistogram reports whether two latency histograms hold the same
// observations.
func sameHistogram(a, b *obsv.Histogram) bool {
	return a.N == b.N && a.Sum == b.Sum && a.Max == b.Max && a.Over == b.Over && slices.Equal(a.Counts, b.Counts)
}

// verifyAgainstReference runs one trace through the engine and the
// naive per-step baseline and requires identical counters and latency
// histograms.
func verifyAgainstReference(name string, tmpls []*netsim.Message, lambda float64, count int) error {
	tr, err := trafficTrace("poisson", trafficSeed, lambda, count, len(tmpls))
	if err != nil {
		return err
	}
	after := warmupCutoff(tr)
	run := func(sim func([]*netsim.Message, netsim.ArrivalSource, netsim.OpenLoopOpts) (*netsim.OpenLoopResult, error)) (*netsim.OpenLoopResult, *obsv.Histogram, error) {
		h := obsv.NewHistogram(1, 1<<14)
		r, err := sim(tmpls, tr.Source(), netsim.OpenLoopOpts{
			Mode: netsim.CutThrough, MeasureAfter: after, Sink: h,
		})
		return r, h, err
	}
	eng, engHist, err := run(netsim.SimulateOpenLoop)
	if err != nil {
		return fmt.Errorf("%s: engine: %w", name, err)
	}
	naive, naiveHist, err := run(netsim.SimulateOpenLoopReference)
	if err != nil {
		return fmt.Errorf("%s: naive baseline: %w", name, err)
	}
	engCmp := *eng
	engCmp.SkippedSteps = 0 // the baseline never skips; everything else must match
	if engCmp != *naive {
		return fmt.Errorf("%s: engine diverged from naive baseline: %+v vs %+v", name, engCmp, *naive)
	}
	if !sameHistogram(engHist, naiveHist) {
		return fmt.Errorf("%s: latency distributions diverged (N %d vs %d, Sum %d vs %d)",
			name, engHist.N, naiveHist.N, engHist.Sum, naiveHist.Sum)
	}
	return nil
}

// measureTrafficSweep runs the E26 sweep once per process and caches
// it.
var measureTrafficSweep = sync.OnceValues(func() ([]trafficCase, error) {
	var cases []trafficCase
	type embCase struct {
		name  string
		build func(int) (*core.Embedding, error)
	}
	embs := []embCase{
		{"theorem1", cycles.Theorem1},
		{"theorem2", cycles.Theorem2},
	}
	for _, n := range trafficDims {
		for _, ec := range embs {
			emb, err := ec.build(n)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", ec.name, n, err)
			}
			sub, tmpls, err := trafficWindow(emb)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", ec.name, n, err)
			}
			// The window's closed-loop drain run: capacity normalizer.
			drain, err := netsim.Simulate(tmpls, netsim.CutThrough)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d drain: %w", ec.name, n, err)
			}
			work := 0
			for _, m := range tmpls {
				work += m.Flits * len(m.Route)
			}
			meanWork := float64(work) / float64(len(tmpls))
			capacity := float64(drain.FlitsMoved) / float64(max(drain.Steps, 1))
			c := trafficCase{
				Embedding:    ec.name,
				Dims:         n,
				Edges:        len(sub.Paths),
				Templates:    len(tmpls),
				Capacity:     capacity,
				MeanFlitHops: meanWork,
			}
			for _, load := range trafficLoads {
				lambda := load * capacity / meanWork
				tr, err := trafficTrace("poisson", trafficSeed, lambda, trafficN, len(tmpls))
				if err != nil {
					return nil, fmt.Errorf("%s n=%d load=%g: %w", ec.name, n, load, err)
				}
				h := obsv.NewHistogram(1, 1<<14)
				res, err := netsim.SimulateOpenLoop(tmpls, tr.Source(), netsim.OpenLoopOpts{
					Mode:         netsim.CutThrough,
					MeasureAfter: warmupCutoff(tr),
					Sink:         h,
				})
				if err != nil {
					return nil, fmt.Errorf("%s n=%d load=%g: %w", ec.name, n, load, err)
				}
				steps := max(res.Steps, 1)
				c.Points = append(c.Points, trafficPoint{
					Load:        load,
					Lambda:      lambda,
					Arrivals:    trafficN,
					Steps:       res.Steps,
					SkippedFrac: float64(res.SkippedSteps) / float64(steps),
					Delivered:   res.DeliveredMsgs,
					Throughput:  float64(res.FlitsMoved) / float64(steps),
					Latency:     h.Summarize(),
				})
			}
			base := c.Points[0].Latency.Mean
			for _, pt := range c.Points {
				if pt.Latency.Mean <= 3*base {
					c.SaturationLoad = pt.Load
					c.SaturationThroughput = pt.Throughput
				}
			}
			cases = append(cases, c)
			// On the largest host's Theorem 1 window the engine must
			// match the naive baseline at 20% offered load and on the
			// trickle trace, where leap-stepping dominates.
			if ec.name == "theorem1" && n == trafficDims[len(trafficDims)-1] {
				if err := verifyAgainstReference(fmt.Sprintf("theorem1-q%d-load0.2", n), tmpls, 0.2*capacity/meanWork, trafficN); err != nil {
					return nil, err
				}
				if err := verifyAgainstReference(fmt.Sprintf("theorem1-q%d-trickle", n), tmpls, trickleRate, trickleN); err != nil {
					return nil, err
				}
			}
		}
	}
	return cases, nil
})

// runE26 renders the offered-load sweep: steady-state latency
// percentiles versus load for the Theorem 1/2 hotspot windows, with
// the detected saturation point.
func runE26() (*table, error) {
	cases, err := measureTrafficSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"embedding", "host", "load", "λ msg/step", "p50", "p95", "p99", "mean", "flits/step", "skipped",
	}}
	for _, c := range cases {
		host := fmt.Sprintf("Q_%d", c.Dims)
		for _, pt := range c.Points {
			tab.addRow(
				c.Embedding,
				host,
				fmt.Sprintf("%.2f", pt.Load),
				fmt.Sprintf("%.3f", pt.Lambda),
				fmt.Sprintf("%d", pt.Latency.P50),
				fmt.Sprintf("%d", pt.Latency.P95),
				fmt.Sprintf("%d", pt.Latency.P99),
				fmt.Sprintf("%.1f", pt.Latency.Mean),
				fmt.Sprintf("%.1f", pt.Throughput),
				fmt.Sprintf("%d%%", int(100*pt.SkippedFrac)),
			)
		}
		tab.note("%s Q_%d: saturation at load %.2f (%.1f flit-hops/step sustained); capacity %.1f flits/step over %d templates (%d guest edges).",
			c.Embedding, c.Dims, c.SaturationLoad, c.SaturationThroughput, c.Capacity, c.Templates, c.Edges)
	}
	tab.note("poisson arrivals over a %d-guest-edge hotspot window, %d flits per guest edge, cut-through; "+
		"load is offered flit-hops as a fraction of the window's closed-loop drain capacity, and the "+
		"latency columns exclude the first 20%% of arrivals (warm-up).",
		trafficEdges, trafficFlits)
	return tab, nil
}
