package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
)

// E27: whole-cube open-loop saturation sweeps through the sharded engine
// (netsim.SimulateOpenLoopSharded) on the Theorem 1 and Theorem 2
// embeddings at Q_16/Q_20. Unlike E26's hotspot window, the templates
// here cover every guest edge of the cube, so the arrival stream
// drives the entire dense link space — millions of links at Q_20 —
// and each load point is sized to cover olWindow simulated steps at
// its arrival rate. Whole-cube capacity grows with the cube, so the
// arrival budget is capped at olNMax; capped points cover fewer steps
// than olWindow and are flagged in a table note (a high-load Q_20
// point describes the loaded transient, not a long steady state — no
// silent caps). At each case's middle load every shard count is
// verified bit-identical to the single-shard engine — same
// OpenLoopResult including SkippedSteps, same latency distribution —
// and per-shard conservation (FlitsMoved + DroppedFlits ==
// InjectedHops) is checked through the stats entry point.

// Sweep parameters; the shard counts are E25's. The test package
// shrinks them so the regression gate stays fast.
var (
	olDims   = []int{16, 20}
	olLoads  = []float64{0.5, 0.9, 1.3}
	olFlits  = 4
	olWindow = 15        // target simulated steps per load point
	olNMax   = 1_000_000 // arrival budget cap per load point
	olSeed   = int64(27)
)

// olArrivalCount sizes one load point's trace: enough arrivals to
// cover olWindow steps at rate lambda, capped at the olNMax budget.
func olArrivalCount(lambda float64) (count int, capped bool) {
	n := int(lambda*float64(olWindow)) + 1
	if n > olNMax {
		return olNMax, true
	}
	return n, false
}

// trafficShardCurve is one arrival process's whole-cube load curve.
type trafficShardCurve struct {
	Arrival string
	Points  []trafficPoint
	// CappedLoads lists the swept loads whose arrival count hit the
	// olNMax budget (their windows are shorter than olWindow steps).
	CappedLoads []float64
	// SaturationLoad is found as in the E26 cases: the largest load
	// whose mean latency stays within 3x the lowest-load mean.
	SaturationLoad float64
}

// trafficShardCase is one embedding×dimension of the E27 sweep:
// whole-cube load curves per arrival process plus the shard counts
// verified at ShardLoad under Poisson arrivals.
type trafficShardCase struct {
	Embedding string
	Dims      int
	Links     int
	Templates int
	// Capacity is the whole cube's closed-loop drain rate (flit-hops
	// per step with every template injected at step 0).
	Capacity     float64
	MeanFlitHops float64
	Curves       []trafficShardCurve
	ShardLoad    float64
	Lambda       float64
	Arrivals     int
	Steps        int
	// Shards lists the shard counts verified against the single-shard
	// run of the ShardLoad trace.
	Shards []int
}

// olRun is one single-shard open-loop run with the standard
// measurement harness attached. Like olVerifySharded it first collects
// the previous run's garbage: in a full mpbench run the live heap at
// Q_20 is near 4 GB (E27's cube plus the Q_20 engines netsim's pools
// keep from E25), and the collector's default 2x headroom alone let
// the run outgrow an 8 GB host.
func olRun(tmpls []*netsim.Message, tr *netsim.Trace, after int) (*netsim.OpenLoopResult, *obsv.Histogram, error) {
	runtime.GC()
	h := obsv.NewHistogram(1, 1<<14)
	r, err := netsim.SimulateOpenLoop(tmpls, tr.Source(),
		netsim.OpenLoopOpts{Mode: netsim.CutThrough, MeasureAfter: after, Sink: h})
	return r, h, err
}

// olVerifySharded checks one shard count bit-identical to the
// single-shard golden run — result including SkippedSteps, latency
// histogram — and conservation per shard and globally.
func olVerifySharded(name string, tmpls []*netsim.Message, tr *netsim.Trace, after, shards int,
	want *netsim.OpenLoopResult, wantHist *obsv.Histogram) error {
	runtime.GC()
	h := obsv.NewHistogram(1, 1<<14)
	got, stats, err := netsim.SimulateOpenLoopShardedStats(tmpls, tr.Source(),
		netsim.OpenLoopOpts{Mode: netsim.CutThrough, MeasureAfter: after, Sink: h}, shards)
	if err != nil {
		return fmt.Errorf("%s shards=%d: %w", name, shards, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s shards=%d: result diverged from single-shard: %+v vs %+v", name, shards, got, want)
	}
	if !sameHistogram(h, wantHist) {
		return fmt.Errorf("%s shards=%d: latency distributions diverged (N %d vs %d)", name, shards, h.N, wantHist.N)
	}
	sumMoved, sumDropped, sumInj := 0, 0, 0
	for k, st := range stats {
		if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
			return fmt.Errorf("%s shards=%d shard %d: conservation broken: moved %d + dropped %d != injected %d",
				name, shards, k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
		}
		sumMoved += st.FlitsMoved
		sumDropped += st.DroppedFlits
		sumInj += st.InjectedHops
	}
	if sumMoved != got.FlitsMoved || sumDropped != got.DroppedFlits || sumInj != got.InjectedHops {
		return fmt.Errorf("%s shards=%d: per-shard sums diverge from the global result", name, shards)
	}
	return nil
}

// measureWholeCubeSweep runs the E27 sweep once per process and caches
// it.
var measureWholeCubeSweep = sync.OnceValues(func() ([]trafficShardCase, error) {
	var cases []trafficShardCase
	builders := []struct {
		name  string
		build func(int) (*core.Embedding, error)
	}{
		{"theorem1", cycles.Theorem1},
		{"theorem2", cycles.Theorem2},
	}
	for _, n := range olDims {
		for _, b := range builders {
			emb, err := b.build(n)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", b.name, n, err)
			}
			tmpls, err := traffic.WidthPathMessages(emb, olFlits)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", b.name, n, err)
			}
			drain, err := netsim.Simulate(tmpls, netsim.CutThrough)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d drain: %w", b.name, n, err)
			}
			work := 0
			for _, m := range tmpls {
				work += m.Flits * len(m.Route)
			}
			meanWork := float64(work) / float64(len(tmpls))
			capacity := float64(drain.FlitsMoved) / float64(max(drain.Steps, 1))
			c := trafficShardCase{
				Embedding:    b.name,
				Dims:         n,
				Links:        emb.Host.DirectedEdges(),
				Templates:    len(tmpls),
				Capacity:     capacity,
				MeanFlitHops: meanWork,
			}
			for _, process := range []string{"poisson", "mmpp"} {
				curve := trafficShardCurve{Arrival: process}
				for _, load := range olLoads {
					lambda := load * capacity / meanWork
					count, capped := olArrivalCount(lambda)
					if capped {
						curve.CappedLoads = append(curve.CappedLoads, load)
					}
					tr, err := trafficTrace(process, olSeed, lambda, count, len(tmpls))
					if err != nil {
						return nil, fmt.Errorf("%s n=%d %s load=%g: %w", b.name, n, process, load, err)
					}
					res, h, err := olRun(tmpls, tr, warmupCutoff(tr))
					if err != nil {
						return nil, fmt.Errorf("%s n=%d %s load=%g: %w", b.name, n, process, load, err)
					}
					steps := max(res.Steps, 1)
					curve.Points = append(curve.Points, trafficPoint{
						Load:        load,
						Lambda:      lambda,
						Arrivals:    count,
						Steps:       res.Steps,
						SkippedFrac: float64(res.SkippedSteps) / float64(steps),
						Delivered:   res.DeliveredMsgs,
						Throughput:  float64(res.FlitsMoved) / float64(steps),
						Latency:     h.Summarize(),
					})
				}
				base := curve.Points[0].Latency.Mean
				for _, pt := range curve.Points {
					if pt.Latency.Mean <= 3*base {
						curve.SaturationLoad = pt.Load
					}
				}
				c.Curves = append(c.Curves, curve)
			}
			// Every shard count at the middle load under Poisson arrivals,
			// against the single-shard engine on the same trace.
			c.ShardLoad = olLoads[len(olLoads)/2]
			c.Lambda = c.ShardLoad * capacity / meanWork
			c.Arrivals, _ = olArrivalCount(c.Lambda)
			tr, err := trafficTrace("poisson", olSeed, c.Lambda, c.Arrivals, len(tmpls))
			if err != nil {
				return nil, fmt.Errorf("%s n=%d shard sweep: %w", b.name, n, err)
			}
			after := warmupCutoff(tr)
			golden, goldenHist, err := olRun(tmpls, tr, after)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d shard sweep: %w", b.name, n, err)
			}
			c.Steps = golden.Steps
			name := fmt.Sprintf("%s-q%d", b.name, n)
			for _, shards := range shardCountSweep() {
				if err := olVerifySharded(name, tmpls, tr, after, shards, golden, goldenHist); err != nil {
					return nil, err
				}
				c.Shards = append(c.Shards, shards)
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
})

// runE27 renders the whole-cube sharded open-loop sweep: steady-state
// latency versus offered load per arrival process, with the shard
// counts verified against the single-shard engine.
func runE27() (*table, error) {
	cases, err := measureWholeCubeSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"embedding", "host", "process", "load", "arrivals", "steps", "p50", "p95", "p99", "mean", "flits/step",
	}}
	for _, c := range cases {
		host := fmt.Sprintf("Q_%d", c.Dims)
		for _, curve := range c.Curves {
			for _, pt := range curve.Points {
				tab.addRow(
					c.Embedding,
					host,
					curve.Arrival,
					fmt.Sprintf("%.2f", pt.Load),
					fmt.Sprintf("%d", pt.Arrivals),
					fmt.Sprintf("%d", pt.Steps),
					fmt.Sprintf("%d", pt.Latency.P50),
					fmt.Sprintf("%d", pt.Latency.P95),
					fmt.Sprintf("%d", pt.Latency.P99),
					fmt.Sprintf("%.1f", pt.Latency.Mean),
					fmt.Sprintf("%.0f", pt.Throughput),
				)
			}
			if len(curve.CappedLoads) > 0 {
				tab.note("%s %s %s: loads %v hit the %d-arrival budget — their windows cover fewer than %d steps (loaded transient, not long steady state).",
					c.Embedding, host, curve.Arrival, curve.CappedLoads, olNMax, olWindow)
			}
		}
		tab.note("%s %s: %d whole-cube templates over %d links; at load %.2f (poisson, %d arrivals) shard counts %v each ran bit-identical to the single-shard engine (result + latency distribution + per-shard conservation).",
			c.Embedding, host, c.Templates, c.Links, c.ShardLoad, c.Arrivals, c.Shards)
	}
	tab.note("Whole-cube width-path templates, %d flits per guest edge, cut-through; load is offered flit-hops "+
		"as a fraction of the cube's closed-loop drain capacity, latency excludes the first 20%% of arrivals "+
		"(warm-up).",
		olFlits)
	return tab, nil
}
