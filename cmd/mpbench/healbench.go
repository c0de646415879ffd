package main

import (
	"fmt"
	"reflect"
	"sync"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/selfheal"
	"multipath/internal/traffic"
)

// E23: measured fault tolerance of the disjoint-path bundles of the
// Theorem 1 and Theorem 2 embeddings — delivered fraction and
// end-to-end latency versus link-fault probability, one path with a
// failover retry against width-d IDA dispersal. Each point runs one
// self-healing session per seed in which every guest edge's transfer
// arrives at step 0.

type faultPoint struct {
	P                 float64
	DeliveredFraction float64
	// MeanLatency averages the step at which each delivered transfer's
	// K-th piece landed, over every seed; -1 means "no data" (nothing
	// was delivered at this point).
	MeanLatency float64
	// Retries/Reroutes sum selfheal.Report's healing accounting over
	// the seeds.
	Retries  int
	Reroutes int
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
// non-increasing along the sweep (asserted in internal/selfheal's
// tests); the averages reported here inherit that.
var (
	faultProbs   = []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	faultSeeds   = 5
	faultFlits   = 8
	faultRetries = 1
)

// faultStrategies are E23's two series: the whole payload on one path
// with faultRetries failover reroutes, and k-of-width dispersal with
// K = width−1, which never retries.
var faultStrategies = []struct {
	name string
	s    selfheal.Strategy
}{{"single-path", selfheal.Reroute}, {"ida", selfheal.IDA}}

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

// faultK is the number of pieces a transfer of strategy s needs on a
// bundle of the given width.
func faultK(s selfheal.Strategy, width int) int {
	if s == selfheal.IDA && width > 1 {
		return width - 1
	}
	return 1
}

// faultRun is one E23 session: every guest edge of e starts one
// transfer at step 0 under seed's coupled Bernoulli draw at p. E24
// attaches a probe to the same runs.
func faultRun(e *core.Embedding, s selfheal.Strategy, p float64, seed int, sink netsim.LatencySink, probe netsim.Probe) (*selfheal.Report, error) {
	nb := len(e.Paths)
	return selfheal.Send(e, nil, healTrace(nb, nb), selfheal.Config{
		Mode:       netsim.CutThrough,
		Flits:      faultFlits,
		Strategy:   s,
		K:          faultK(s, len(e.Paths[0])),
		MaxRetries: faultRetries,
		Faults:     faults.Bernoulli(e.Host.DirectedEdges(), p, int64(seed)),
		Sink:       sink,
		Probe:      probe,
	})
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
		for _, st := range faultStrategies {
			series := faultSeries{
				Embedding: names[ei],
				Strategy:  st.name,
				Width:     width,
				K:         faultK(st.s, width),
			}
			for _, p := range faultProbs {
				pt := faultPoint{P: p, MeanLatency: -1}
				lat := obsv.NewHistogram(1, 1<<12)
				var fracSum float64
				for seed := 1; seed <= faultSeeds; seed++ {
					r, err := faultRun(e, st.s, p, seed, lat, nil)
					if err != nil {
						return nil, fmt.Errorf("%s/%s/p=%g/seed=%d: %w",
							names[ei], st.name, p, seed, err)
					}
					fracSum += r.DeliveredFraction
					pt.Retries += r.Retries
					pt.Reroutes += r.Reroutes
				}
				pt.DeliveredFraction = fracSum / float64(faultSeeds)
				if lat.N > 0 {
					pt.MeanLatency = lat.Mean()
				}
				series.Points = append(series.Points, pt)
			}
			sweep = append(sweep, series)
		}
	}
	return sweep, nil
})

// runE23 renders the sweep as the paper-vs-measured table: the §1
// claim is that dispersal over d disjoint paths rides out link faults,
// here measured through the fault-aware simulator with latency
// attached.
func runE23() (*table, error) {
	sweep, err := measureFaultSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"embedding", "strategy", "p(link fault)", "delivered", "mean latency", "retries",
	}}
	for _, s := range sweep {
		for _, pt := range s.Points {
			tab.addRow(
				s.Embedding,
				fmt.Sprintf("%s (k=%d/%d)", s.Strategy, s.K, s.Width),
				fmt.Sprintf("%.3f", pt.P),
				fmt.Sprintf("%.3f", pt.DeliveredFraction),
				fmt.Sprintf("%.1f", pt.MeanLatency),
				fmt.Sprintf("%d", pt.Retries),
			)
		}
	}
	tab.note("%d seeds per point, %d-flit payloads, cut-through, every transfer arriving at step 0 of "+
		"one selfheal run; single path reroutes at most %d time(s), IDA never retries; per seed the "+
		"fault sets are nested across p, so delivered fraction is monotone non-increasing (asserted "+
		"in internal/selfheal tests).",
		faultSeeds, faultFlits, faultRetries)
	return tab, nil
}

// E28: graceful degradation of the self-healing open-loop transport —
// delivered fraction, deadline misses, and post-repair latency
// percentiles versus link-fault rate × offered load, under the same
// coupled Bernoulli draws as the E23 single-path baseline (so the two
// are comparable point by point) and under a burst schedule that adds
// a correlated transient outage epoch on top.

type healPoint struct {
	P    float64
	Rate int
	// DeliveredFraction and DeadlineMissFraction average the per-seed
	// selfheal.Report fractions.
	DeliveredFraction    float64
	DeadlineMissFraction float64
	// Retries/Reroutes/Abandoned sum over the seeds.
	Retries   int
	Reroutes  int
	Abandoned int
	// Latency digests completion−arrival over all delivered transfers
	// of all seeds; Repaired restricts to transfers that needed at
	// least one retry (empty at p=0).
	Latency  obsv.Summary
	Repaired obsv.Summary
}

type healSeries struct {
	// Schedule is "bernoulli" (permanent coupled draws, exactly the
	// E23 fault sets) or "bernoulli+burst" (the same plus a transient
	// window drawn at the same rate).
	Schedule string
	Backoff  string
	Points   []healPoint
}

type selfHealReport struct {
	Embedding  string
	Width      int
	Flits      int
	MaxRetries int
	Deadline   int
	Seeds      int
	Rates      []int
	// VerifiedShards records the bit-identity check that ran before
	// any point was measured: listener-off sharded runs at this shard
	// count matched the single-shard engine exactly, and the healing
	// session's Report was identical at shards 1 and VerifiedShards.
	VerifiedShards int
	Series         []healSeries
}

// Sweep parameters. Rates are transfer arrivals per step; each run
// starts one transfer per guest edge. The deadline is far above the
// clean cut-through latency, so misses measure healing delay, not the
// baseline transit time.
var (
	healRates        = []int{2, 16}
	healFlits        = 8
	healMaxRetries   = 3
	healDeadline     = 48
	healStepLimit    = 5000
	healVerifyShards = 4
	healBurstFrom    = 16
	healBurstUntil   = 48
)

type healBackoff struct {
	name string
	b    selfheal.Backoff
}

func healBackoffs() []healBackoff {
	return []healBackoff{
		{"fixed", selfheal.FixedBackoff{Steps: 4}},
		{"exp", selfheal.ExpBackoff{Base: 2, Cap: 32, Jitter: 0.5, Seed: 1}},
	}
}

// healSchedule builds one seed's fault schedule. The permanent part is
// exactly the E23 baseline's coupled Bernoulli draw, so the delivered
// fractions are comparable per (p, seed); the burst variant unions in
// a transient outage epoch drawn independently at the same rate.
func healSchedule(kind string, links int, p float64, seed int64) *faults.Schedule {
	bern := faults.Bernoulli(links, p, seed)
	if kind != "bernoulli+burst" {
		return bern
	}
	return faults.Union(bern, faults.BernoulliWindow(links, p, seed+911, healBurstFrom, healBurstUntil))
}

// healTrace starts one transfer per guest edge, rate arrivals per step
// in edge order.
func healTrace(bundles, rate int) *netsim.Trace {
	tr := &netsim.Trace{}
	for i := 0; i < bundles; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / rate, Tmpl: int32(i)})
	}
	return tr
}

// measureSelfHealSweep runs the E28 sweep once per process. Before any
// point is measured it verifies the determinism contract on the
// heaviest configuration: a listener-off sharded run is bit-identical
// to the single-shard engine, and the healing session's Report is
// shard-invariant.
var measureSelfHealSweep = sync.OnceValues(func() (*selfHealReport, error) {
	e, err := cycles.Theorem1(8)
	if err != nil {
		return nil, err
	}
	links := e.Host.DirectedEdges()
	nb := len(e.Paths)
	pMax := faultProbs[len(faultProbs)-1]

	// Bit-identity gate 1: the engine itself, listener off, on this
	// sweep's templates and trace.
	tmpls, _, err := traffic.PathTemplates(e, nil, healFlits)
	if err != nil {
		return nil, err
	}
	vTrace := healTrace(nb, healRates[0])
	vSched := healSchedule("bernoulli", links, pMax, 1)
	vOpts := netsim.OpenLoopOpts{Mode: netsim.CutThrough, Faults: vSched, StepLimit: healStepLimit}
	want, err := netsim.SimulateOpenLoop(tmpls, vTrace.Source(), vOpts)
	if err != nil {
		return nil, err
	}
	got, err := netsim.SimulateOpenLoopSharded(tmpls, vTrace.Source(), vOpts, healVerifyShards)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("E28: listener-off engine diverged at %d shards:\n%+v\nvs\n%+v",
			healVerifyShards, *got, *want)
	}

	// Bit-identity gate 2: the healing session's Report at 1 vs
	// healVerifyShards shards.
	healRun := func(shards int) (*selfheal.Report, error) {
		return selfheal.Send(e, nil, healTrace(nb, healRates[0]), selfheal.Config{
			Mode:       netsim.CutThrough,
			Flits:      healFlits,
			MaxRetries: healMaxRetries,
			Deadline:   healDeadline,
			Backoff:    healBackoffs()[0].b,
			Faults:     vSched,
			StepLimit:  healStepLimit,
			Shards:     shards,
		})
	}
	wantRep, err := healRun(1)
	if err != nil {
		return nil, err
	}
	gotRep, err := healRun(healVerifyShards)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		return nil, fmt.Errorf("E28: healing report diverged at %d shards:\n%+v\nvs\n%+v",
			healVerifyShards, *gotRep, *wantRep)
	}

	rep := &selfHealReport{
		Embedding:      "Theorem 1 (n=8)",
		Width:          len(e.Paths[0]),
		Flits:          healFlits,
		MaxRetries:     healMaxRetries,
		Deadline:       healDeadline,
		Seeds:          faultSeeds,
		Rates:          healRates,
		VerifiedShards: healVerifyShards,
	}
	for _, kind := range []string{"bernoulli", "bernoulli+burst"} {
		for _, bo := range healBackoffs() {
			series := healSeries{Schedule: kind, Backoff: bo.name}
			for _, p := range faultProbs {
				for _, rate := range healRates {
					pt := healPoint{P: p, Rate: rate}
					lat := obsv.NewHistogram(1, 1<<12)
					rept := obsv.NewHistogram(1, 1<<12)
					var fracSum, missSum float64
					for seed := 1; seed <= faultSeeds; seed++ {
						r, err := selfheal.Send(e, nil, healTrace(nb, rate), selfheal.Config{
							Mode:         netsim.CutThrough,
							Flits:        healFlits,
							MaxRetries:   healMaxRetries,
							Deadline:     healDeadline,
							Backoff:      bo.b,
							Faults:       healSchedule(kind, links, p, int64(seed)),
							StepLimit:    healStepLimit,
							Sink:         lat,
							RepairedSink: rept,
						})
						if err != nil {
							return nil, fmt.Errorf("E28 %s/%s/p=%g/rate=%d/seed=%d: %w",
								kind, bo.name, p, rate, seed, err)
						}
						fracSum += r.DeliveredFraction
						missSum += r.DeadlineMissFraction
						pt.Retries += r.Retries
						pt.Reroutes += r.Reroutes
						pt.Abandoned += r.Abandoned
					}
					pt.DeliveredFraction = fracSum / float64(faultSeeds)
					pt.DeadlineMissFraction = missSum / float64(faultSeeds)
					pt.Latency = lat.Summarize()
					pt.Repaired = rept.Summarize()
					series.Points = append(series.Points, pt)
				}
			}
			rep.Series = append(rep.Series, series)
		}
	}
	return rep, nil
})

// runE28 renders the degradation curves: the self-healing transport's
// delivered fraction against the E23 single-path baseline at the same
// coupled fault draws, with deadline misses and post-repair latency
// percentiles per backoff policy.
func runE28() (*table, error) {
	rep, err := measureSelfHealSweep()
	if err != nil {
		return nil, err
	}
	base, err := measureFaultSweep()
	if err != nil {
		return nil, err
	}
	baseline := map[float64]float64{}
	for _, s := range base {
		if s.Embedding == rep.Embedding && s.Strategy == "single-path" {
			for _, pt := range s.Points {
				baseline[pt.P] = pt.DeliveredFraction
			}
		}
	}
	tab := &table{headers: []string{
		"schedule", "backoff", "p", "rate", "delivered", "single-path", "miss frac", "retries", "reroutes", "repair p99",
	}}
	for _, s := range rep.Series {
		for _, pt := range s.Points {
			rp99 := "-"
			if pt.Repaired.N > 0 {
				rp99 = fmt.Sprintf("%d", pt.Repaired.P99)
			}
			tab.addRow(
				s.Schedule,
				s.Backoff,
				fmt.Sprintf("%.3f", pt.P),
				fmt.Sprintf("%d", pt.Rate),
				fmt.Sprintf("%.3f", pt.DeliveredFraction),
				fmt.Sprintf("%.3f", baseline[pt.P]),
				fmt.Sprintf("%.3f", pt.DeadlineMissFraction),
				fmt.Sprintf("%d", pt.Retries),
				fmt.Sprintf("%d", pt.Reroutes),
				rp99,
			)
		}
	}
	tab.note("%s, width %d, %d-flit transfers, ≤%d retries, deadline %d steps, %d seeds per "+
		"point; the permanent fault draws are exactly those of the single-path column, E23's "+
		"session with every transfer at step 0 and ≤%d retry, and listener-off bit-identity at "+
		"%d shards was verified before measuring.",
		rep.Embedding, rep.Width, rep.Flits, rep.MaxRetries, rep.Deadline, rep.Seeds,
		faultRetries, rep.VerifiedShards)
	return tab, nil
}
