package main

import (
	"fmt"
	"sync"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
	"multipath/internal/transport"
)

// E23: measured fault tolerance of the retry/IDA transport over the
// Theorem 1 and Theorem 2 embeddings — delivered fraction and
// end-to-end latency versus link-fault probability, single path versus
// width-d IDA dispersal.

type faultPoint struct {
	P                 float64
	DeliveredFraction float64
	// MeanLatency averages the per-edge k-th-piece arrival step over
	// delivered edges and seeds; -1 means "no data" (nothing was
	// delivered at this point), matching transport.Report.MeanLatency.
	MeanLatency float64
	MeanRounds  float64
	// Retries/Reroutes/DeadlineMisses sum transport.Report's healing
	// accounting over the seeds (the deadline is faultDeadline steps).
	Retries        int
	Reroutes       int
	DeadlineMisses int
}

type faultSeries struct {
	Embedding string
	Strategy  string
	Width     int
	K         int
	Points    []faultPoint
}

// Sweep parameters. Probabilities are per directed link; seeds are
// averaged per point. faults.Bernoulli couples the draws across p for
// a fixed seed, so each seed's delivered fraction is monotone
// non-increasing along the sweep (asserted in internal/transport's
// tests); the averages reported here inherit that.
var (
	faultProbs   = []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	faultSeeds   = 5
	faultFlits   = 8
	faultRetries = 1
	// faultDeadline only classifies outcomes (transport.Config.Deadline
	// does not change routing), so adding it leaves every pre-existing
	// series value bit-identical.
	faultDeadline = 64
)

func faultEmbeddings() ([]string, []*core.Embedding, error) {
	e1, err := cycles.Theorem1(8)
	if err != nil {
		return nil, nil, err
	}
	e2, err := cycles.Theorem2(8)
	if err != nil {
		return nil, nil, err
	}
	return []string{"Theorem 1 (n=8)", "Theorem 2 (n=8)"}, []*core.Embedding{e1, e2}, nil
}

// measureFaultSweep runs the whole sweep once per process; E23 and
// E28's baseline column both read the cached result.
var measureFaultSweep = sync.OnceValues(func() ([]faultSeries, error) {
	names, embs, err := faultEmbeddings()
	if err != nil {
		return nil, err
	}
	var sweep []faultSeries
	for ei, e := range embs {
		width := len(e.Paths[0])
		k := width - 1
		if k < 1 {
			k = 1
		}
		for _, strat := range []transport.Strategy{transport.SinglePath, transport.IDA} {
			series := faultSeries{
				Embedding: names[ei],
				Strategy:  strat.String(),
				Width:     width,
				K:         k,
			}
			if strat == transport.SinglePath {
				series.K = 1
			}
			for _, p := range faultProbs {
				var pt faultPoint
				pt.P = p
				var fracSum, latSum, roundSum float64
				var latEdges int
				for seed := 1; seed <= faultSeeds; seed++ {
					sched := faults.Bernoulli(e.Host.DirectedEdges(), p, int64(seed))
					r, err := transport.SendAll(e, transport.Config{
						Strategy:   strat,
						Mode:       netsim.CutThrough,
						Flits:      faultFlits,
						K:          k,
						MaxRetries: faultRetries,
						Deadline:   faultDeadline,
						Faults:     sched,
					})
					if err != nil {
						return nil, fmt.Errorf("%s/%v/p=%g/seed=%d: %w",
							names[ei], strat, p, seed, err)
					}
					fracSum += r.DeliveredFraction
					if r.DeliveredEdges > 0 {
						latSum += r.MeanLatency * float64(r.DeliveredEdges)
						latEdges += r.DeliveredEdges
					}
					roundSum += float64(r.Rounds)
					pt.Retries += r.Retries
					pt.Reroutes += r.Reroutes
					pt.DeadlineMisses += r.DeadlineMisses
				}
				pt.DeliveredFraction = fracSum / float64(faultSeeds)
				if latEdges > 0 {
					pt.MeanLatency = latSum / float64(latEdges)
				} else {
					pt.MeanLatency = -1
				}
				pt.MeanRounds = roundSum / float64(faultSeeds)
				series.Points = append(series.Points, pt)
			}
			sweep = append(sweep, series)
		}
	}
	return sweep, nil
})

// runE23 renders the sweep as the paper-vs-measured table: the §1
// claim is that dispersal over d disjoint paths rides out link faults
// a single path cannot, now measured through the fault-aware simulator
// with latency attached.
func runE23() (*table, error) {
	sweep, err := measureFaultSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"embedding", "strategy", "p(link fault)", "delivered", "mean latency", "mean rounds",
	}}
	for _, s := range sweep {
		for _, pt := range s.Points {
			tab.addRow(
				s.Embedding,
				fmt.Sprintf("%s (k=%d/%d)", s.Strategy, s.K, s.Width),
				fmt.Sprintf("%.3f", pt.P),
				fmt.Sprintf("%.3f", pt.DeliveredFraction),
				fmt.Sprintf("%.1f", pt.MeanLatency),
				fmt.Sprintf("%.1f", pt.MeanRounds),
			)
		}
	}
	tab.note("%d seeds per point, %d-flit payloads, cut-through, %d retry round(s); "+
		"per seed the fault sets are nested across p, so delivered fraction is "+
		"monotone non-increasing (asserted in internal/transport tests).",
		faultSeeds, faultFlits, faultRetries)
	return tab, nil
}
