package main

import (
	"fmt"
	"os"
	"sync"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
)

// E24: the observability layer's view of the headline workloads —
// flit/message latency distributions (p50/p95/p99) and per-link
// queue-depth histograms for the Theorem 1 and Theorem 2 embeddings at
// n = 16, plus the E23 fault sweep observed through the self-healing
// session's probe.

type obsvCase struct {
	Name string
	// Runs/Delivered/Failed/DroppedFlits aggregate the probe's counters
	// over every simulation run folded into this case.
	Runs         int
	Delivered    int
	Failed       int
	DroppedFlits uint64
	// FlitLatency is the per-flit arrival-step distribution; MsgLatency
	// the per-message completion-step distribution, both in steps since
	// the run began.
	FlitLatency obsv.Summary
	MsgLatency  obsv.Summary
	// QueueDepth samples every link's queue length at every step; its
	// buckets are the per-link queue-depth histogram.
	QueueDepth        obsv.Summary
	QueueDepthBuckets []obsv.Bucket
	// MaxLinkQueue is the engine's own peak-queue metric for the same
	// runs (sampled at enqueue time, so ≥ the StepEnd-derived max).
	MaxLinkQueue int
	// MeanBusyFraction averages the per-step fraction of links that
	// moved a flit.
	MeanBusyFraction float64
}

const (
	obsFlits = 16
	obsN     = 16
)

func recorderCase(name string, r *obsv.Recorder, maxQueue int) obsvCase {
	c := obsvCase{
		Name:              name,
		Runs:              r.Runs,
		Delivered:         r.Delivered,
		Failed:            r.Failed,
		DroppedFlits:      r.Dropped,
		FlitLatency:       r.FlitLatency.Summarize(),
		MsgLatency:        r.MsgLatency.Summarize(),
		QueueDepth:        r.QueueDepth.Summarize(),
		QueueDepthBuckets: r.QueueDepth.NonEmptyBuckets(),
		MaxLinkQueue:      maxQueue,
	}
	samples := r.BusyFraction.Samples()
	if len(samples) > 0 {
		sum := 0.0
		for _, v := range samples {
			sum += v
		}
		c.MeanBusyFraction = sum / float64(len(samples))
	}
	return c
}

// theoremCase runs one width-path workload under a Recorder.
func theoremCase(name string, build func(int) (*core.Embedding, error)) (obsvCase, error) {
	e, err := build(obsN)
	if err != nil {
		return obsvCase{}, err
	}
	msgs, err := traffic.WidthPathMessages(e, obsFlits)
	if err != nil {
		return obsvCase{}, err
	}
	rec := obsv.NewRecorder()
	res, err := netsim.SimulateProbed(msgs, netsim.CutThrough, rec)
	if err != nil {
		return obsvCase{}, err
	}
	return recorderCase(name, rec, res.MaxLinkQueue), nil
}

// measureObsSweep runs the observability suite once per process and
// caches it.
var measureObsSweep = sync.OnceValues(func() ([]obsvCase, error) {
	c1, err := theoremCase(fmt.Sprintf("theorem1-n%d", obsN), cycles.Theorem1)
	if err != nil {
		return nil, fmt.Errorf("theorem1: %w", err)
	}
	c2, err := theoremCase(fmt.Sprintf("theorem2-n%d", obsN), cycles.Theorem2)
	if err != nil {
		return nil, fmt.Errorf("theorem2: %w", err)
	}
	cases := []obsvCase{c1, c2}

	// The E23 fault sweep, observed: one Recorder per strategy attached
	// through selfheal.Config.Probe accumulates across every embedding,
	// fault probability, and seed of the sweep, so the latency
	// histograms are distributions under the same fault load E23
	// reports delivered fractions for.
	names, embs, err := faultEmbeddings()
	if err != nil {
		return nil, err
	}
	for _, st := range faultStrategies {
		rec := obsv.NewRecorder()
		maxQueue := 0
		for ei, e := range embs {
			for _, p := range faultProbs {
				for seed := 1; seed <= faultSeeds; seed++ {
					r, err := faultRun(e, st.s, p, seed, nil, rec)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/p=%g/seed=%d: %w",
							names[ei], st.name, p, seed, err)
					}
					maxQueue = max(maxQueue, r.Engine.MaxLinkQueue)
				}
			}
		}
		cases = append(cases, recorderCase("e23-fault-sweep/"+st.name, rec, maxQueue))
	}
	return cases, nil
})

// runE24 renders the observability sweep: where the aggregate tables
// report means, this one reports the distributions the paper's
// congestion claims are really about.
func runE24() (*table, error) {
	cases, err := measureObsSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"case", "runs", "delivered/failed", "flit lat p50/p95/p99",
		"msg lat p50/p95/p99", "queue p95/max", "busy",
	}}
	for _, c := range cases {
		tab.addRow(
			c.Name,
			fmt.Sprintf("%d", c.Runs),
			fmt.Sprintf("%d/%d", c.Delivered, c.Failed),
			fmt.Sprintf("%d/%d/%d", c.FlitLatency.P50, c.FlitLatency.P95, c.FlitLatency.P99),
			fmt.Sprintf("%d/%d/%d", c.MsgLatency.P50, c.MsgLatency.P95, c.MsgLatency.P99),
			fmt.Sprintf("%d/%d", c.QueueDepth.P95, c.QueueDepth.Max),
			fmt.Sprintf("%.3f", c.MeanBusyFraction),
		)
	}
	tab.note("theorem cases: width-path traffic, %d flits per guest edge, cut-through, n=%d; "+
		"fault-sweep cases: the E23 configuration observed through selfheal.Config.Probe, one run per "+
		"(embedding, p, seed) with absolute steps. Probe-off runs are the same kernel with its nil-checked probe sites untaken: "+
		"TestSimulateAllocs pins their allocations, FuzzSimulateProbed pins that a probe never changes a result, and perfbench's drain workload measures their cost.",
		obsFlits, obsN)
	return tab, nil
}

// writeTrace exports one representative run as a JSONL event trace:
// the Theorem 1 (n=8) width-path workload, per-flit move events
// included.
func writeTrace(path string) error {
	e, err := cycles.Theorem1(8)
	if err != nil {
		return err
	}
	msgs, err := traffic.WidthPathMessages(e, 8)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tw := obsv.NewTraceWriter(f)
	if _, err := netsim.SimulateProbed(msgs, netsim.CutThrough, tw); err != nil {
		return err
	}
	return tw.Flush()
}
