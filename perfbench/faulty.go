package main

import (
	"fmt"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/routing"
	"multipath/internal/selfheal"
	"multipath/internal/traffic"
)

// Fault-path sizes: E28's self-healing sessions at Q_14 and E29's
// transpose race at Q_12.
const (
	faultP        = 0.02 // Bernoulli permanent link-fault probability
	healFlits     = 8
	healRate      = 64 // transfers started per step, one per guest edge
	healRetries   = 3
	healDeadline  = 48
	healStepLimit = 5000
	burstFrom     = 16 // transient outage window merged into the schedule
	burstUntil    = 48
	raceDims      = 12
	raceFlits     = 16
	raceLoad      = 0.8 // share of dimorder's clean drain capacity
	raceN         = 6000
	raceWindows   = 4
)

var healPs = []float64{0.05, 0.2}

// strategies are the routing contenders, in report order; multipath is
// the paper's, driven by the benchmark over edge-disjoint paths.
var strategies = []string{"dimorder", "adaptive", "multipath"}

// setupFaulty: each round runs Theorem 1's Q_16 width-path messages
// under Bernoulli faults bare and with a Recorder probe, four
// self-healing sessions, and the three routing contenders under one
// faulty transpose demand. Fault draws, backoff jitter and arrivals
// come from the seed.
func setupFaulty(seed int64) ([]op, error) {
	e16, err := theorem1.build()
	if err != nil {
		return nil, err
	}
	msgs, err := traffic.WidthPathMessages(e16, drainFlits)
	if err != nil {
		return nil, err
	}
	hops := injected(msgs)
	sched := faults.Bernoulli(e16.Host.DirectedEdges(), faultP, derive(seed, 1))
	var bare *netsim.FaultResult
	ops := []op{
		{"faultsim/bare", func(b *bench) error {
			var err error
			bare, err = faultRun(b, "SimulateFaults", msgs, hops, netsim.FaultOpts{Faults: sched})
			return err
		}},
		{"faultsim/recorder", func(b *bench) error {
			rec := obsv.NewRecorder()
			r, err := faultRun(b, "SimulateFaults/recorder", msgs, hops, netsim.FaultOpts{Faults: sched, Probe: rec})
			if err != nil {
				return err
			}
			if bare == nil || r.Result != bare.Result || rec.Moved != uint64(r.FlitsMoved) {
				return fmt.Errorf("recorder run %+v (recorded %d moved) differs from bare run %+v", r.Result, rec.Moved, bare)
			}
			sums, _ := call(b, "obsv", "Summarize", func() ([2]obsv.Summary, error) {
				return [2]obsv.Summary{rec.MsgLatency.Summarize(), rec.QueueDepth.Summarize()}, nil
			})
			b.sum("recorder msg_latency=%+v queue_depth=%+v", sums[0], sums[1])
			return nil
		}},
	}

	heal, err := healOps(seed)
	if err != nil {
		return nil, err
	}
	race, err := raceOps(seed)
	if err != nil {
		return nil, err
	}
	return append(append(ops, heal...), race...), nil
}

// faultRun runs SimulateFaults on msgs and checks every outcome.
func faultRun(b *bench, name string, msgs []*netsim.Message, hops int64, opts netsim.FaultOpts) (*netsim.FaultResult, error) {
	r, err := call(b, "faultsim", name, func() (*netsim.FaultResult, error) {
		return netsim.SimulateFaults(msgs, netsim.CutThrough, opts)
	})
	if err != nil {
		return nil, err
	}
	if err := numbering(b, msgs); err != nil {
		return nil, err
	}
	if err := checkClosed(&r.Result, len(msgs), hops); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var delivered, steps, blamed int
	for _, o := range r.Outcomes {
		if o.Delivered {
			delivered++
		}
		steps += o.Step
		blamed += o.FailedLink
	}
	if len(r.Outcomes) != len(msgs) || delivered != r.DeliveredMsgs {
		return nil, fmt.Errorf("%s: %d outcomes with %d delivered, want %d with %d", name, len(r.Outcomes), delivered, len(msgs), r.DeliveredMsgs)
	}
	b.hops += int64(r.FlitsMoved)
	b.count("faultsim.flit_hops", float64(r.FlitsMoved))
	b.count("faultsim.failed_msgs", float64(r.FailedMsgs))
	b.count("faultsim.dropped_flits", float64(r.DroppedFlits))
	b.sum("faults %+v timed_out=%v outcome_steps=%d blamed_links=%d", r.Result, r.TimedOut, steps, blamed)
	return r, nil
}

// healOps sends one transfer per guest edge of Theorem 1 at Q_14
// through selfheal.Send, under a Bernoulli draw merged with a transient
// burst window, with fixed and with exponential backoff.
func healOps(seed int64) ([]op, error) {
	e, err := cycles.Theorem1(14)
	if err != nil {
		return nil, err
	}
	links := e.Host.DirectedEdges()
	tr := &netsim.Trace{}
	for i := range e.Paths {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / healRate, Tmpl: int32(i)})
	}
	backoffs := []struct {
		name string
		b    selfheal.Backoff
	}{
		{"fixed", selfheal.FixedBackoff{Steps: 4}},
		{"exp", selfheal.ExpBackoff{Base: 2, Cap: 32, Jitter: 0.5, Seed: derive(seed, 2)}},
	}
	var ops []op
	for i, p := range healPs {
		sched := faults.Union(faults.Bernoulli(links, p, derive(seed, 10+i)),
			faults.BernoulliWindow(links, p, derive(seed, 20+i), burstFrom, burstUntil))
		for _, bo := range backoffs {
			cfg := selfheal.Config{
				Mode: netsim.CutThrough, Flits: healFlits, MaxRetries: healRetries, Deadline: healDeadline,
				Backoff: bo.b, Faults: sched, StepLimit: healStepLimit,
			}
			ops = append(ops, op{fmt.Sprintf("selfheal/p%.2f/%s", p, bo.name), func(b *bench) error {
				return healRun(b, e, tr, cfg)
			}})
		}
	}
	return ops, nil
}

func healRun(b *bench, e *core.Embedding, tr *netsim.Trace, cfg selfheal.Config) error {
	lat, repaired := obsv.NewHistogram(1, 1<<12), obsv.NewHistogram(1, 1<<12)
	cfg.Sink, cfg.RepairedSink = lat, repaired
	r, err := call(b, "selfheal", "Send", func() (*selfheal.Report, error) { return selfheal.Send(e, nil, tr, cfg) })
	if err != nil {
		return err
	}
	if err := checkOpen(&r.Engine, r.Engine.Injected); err != nil {
		return fmt.Errorf("selfheal: %w", err)
	}
	if r.Transfers != len(tr.Arrivals) || r.Delivered > r.Transfers {
		return fmt.Errorf("selfheal: %d transfers with %d delivered, want %d", r.Transfers, r.Delivered, len(tr.Arrivals))
	}
	sums, _ := call(b, "obsv", "Summarize", func() ([2]obsv.Summary, error) {
		return [2]obsv.Summary{lat.Summarize(), repaired.Summarize()}, nil
	})
	b.hops += int64(r.Engine.FlitsMoved)
	b.count("selfheal.transfers", float64(r.Transfers))
	b.count("selfheal.delivered", float64(r.Delivered))
	b.count("selfheal.retries", float64(r.Retries))
	b.count("selfheal.reroutes", float64(r.Reroutes))
	b.count("selfheal.abandoned", float64(r.Abandoned))
	b.count("selfheal.pieces_delivered", float64(r.Engine.DeliveredMsgs))
	b.count("selfheal.pieces_injected", float64(r.Engine.Injected))
	b.count("selfheal.flit_hops", float64(r.Engine.FlitsMoved))
	b.sum("selfheal %+v latency=%+v repaired=%+v", *r, sums[0], sums[1])
	return nil
}

// raceOps races dimension-order and adaptive routing (routing.Run)
// against the paper's multipath on one faulty transpose demand at
// Q_12: the same Poisson arrivals, fault draw and four windows for all.
func raceOps(seed int64) ([]op, error) {
	q := hypercube.New(raceDims)
	pairs, err := traffic.TransposePairs(q)
	if err != nil {
		return nil, err
	}
	// Offered load is a share of dimorder's clean closed-loop drain
	// capacity on this demand, as in E29.
	base, err := routing.Templates(routing.NewDimOrder(q), q, pairs, raceFlits, 0)
	if err != nil {
		return nil, err
	}
	rate, err := drainRate(base)
	if err != nil {
		return nil, err
	}
	tr, err := traffic.PoissonArrivals(derive(seed, 3), raceLoad*rate, raceN, len(pairs))
	if err != nil {
		return nil, err
	}
	sched := faults.Bernoulli(q.DirectedEdges(), faultP, derive(seed, 4))
	routeSeed := derive(seed, 5)

	var ops []op
	for _, name := range strategies[:2] {
		ops = append(ops, op{"routing/" + name, func(b *bench) error {
			h := obsv.NewHistogram(1, 1<<14)
			var s routing.Strategy = routing.NewDimOrder(q)
			if name == "adaptive" {
				s = routing.NewAdaptive(q)
			}
			r, err := call(b, "routing", name, func() (*routing.RunResult, error) {
				return routing.Run(s, q, pairs, tr, routing.RunConfig{
					Flits: raceFlits, Windows: raceWindows, Seed: routeSeed, Mode: netsim.CutThrough,
					Faults: sched, WarmupFrac: 0.2, Sink: h,
				})
			})
			if err != nil {
				return err
			}
			if err := checkOpen(&r.OpenLoopResult, raceN); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return raceDone(b, name, &r.OpenLoopResult, r.DeliveredMsgs, h)
		}})
	}

	pieces, w, err := traffic.DisjointPathTemplates(q, pairs, raceFlits)
	if err != nil {
		return nil, err
	}
	windows := routing.SplitTrace(tr, raceWindows)
	ops = append(ops, op{"routing/multipath", func(b *bench) error {
		h := obsv.NewHistogram(1, 1<<14)
		var agg netsim.OpenLoopResult
		var delivered int
		_, err := call(b, "routing", "multipath", func() (struct{}, error) {
			var err error
			agg, delivered, err = runMultipath(pieces, w, windows, sched, h)
			return struct{}{}, err
		})
		if err != nil {
			return err
		}
		return raceDone(b, "multipath", &agg, delivered, h)
	}})
	return ops, nil
}

// raceDone accounts one contender's run: delivered counts whole
// messages (for multipath, messages whose every piece arrived).
func raceDone(b *bench, name string, r *netsim.OpenLoopResult, delivered int, h *obsv.Histogram) error {
	sum, _ := call(b, "obsv", "Summarize", func() (obsv.Summary, error) { return h.Summarize(), nil })
	k := "routing." + name
	b.hops += int64(r.FlitsMoved)
	b.count(k+".flit_hops", float64(r.FlitsMoved))
	b.count(k+".delivered", float64(delivered))
	b.count(k+".arrivals", raceN)
	b.sum("%s %+v delivered=%d latency=%+v", k, *r, delivered, sum)
	return nil
}

// runMultipath is the paper-side contender: each arrival of a window
// expands into w piece arrivals on its pair's edge-disjoint paths, and
// a message counts as delivered when all its pieces are; its latency is
// the last piece's. The first fifth of each window's arrivals is
// warm-up, as routing.Run's WarmupFrac 0.2.
func runMultipath(pieces []*netsim.Message, w int, windows []*netsim.Trace, sched netsim.LinkFaults, sink *obsv.Histogram) (netsim.OpenLoopResult, int, error) {
	var agg netsim.OpenLoopResult
	delivered := 0
	for _, win := range windows {
		n := len(win.Arrivals)
		if n == 0 {
			continue
		}
		exp := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, n*w)}
		for _, a := range win.Arrivals {
			for j := 0; j < w; j++ {
				exp.Arrivals = append(exp.Arrivals, netsim.Arrival{Step: a.Step, Tmpl: a.Tmpl*int32(w) + int32(j)})
			}
		}
		after := warmupCutoff(win)
		lastIn, okPieces := make([]int, n), make([]int, n)
		r, err := netsim.SimulateOpenLoop(pieces, exp.Source(), netsim.OpenLoopOpts{
			Mode:   netsim.CutThrough,
			Faults: sched,
			PerMessage: func(msg int32, arrival, done int, ok bool) {
				g := int(msg) / w
				if ok {
					okPieces[g]++
				}
				lastIn[g] = max(lastIn[g], done)
			},
		})
		if err != nil {
			return agg, 0, fmt.Errorf("multipath window: %w", err)
		}
		if err := checkOpen(r, len(exp.Arrivals)); err != nil {
			return agg, 0, fmt.Errorf("multipath window: %w", err)
		}
		for g, a := range win.Arrivals {
			if okPieces[g] == w {
				delivered++
				if a.Step >= after {
					sink.Observe(lastIn[g] - a.Step)
				}
			}
		}
		agg.Steps += r.Steps
		agg.FlitsMoved += r.FlitsMoved
		agg.DeliveredMsgs += r.DeliveredMsgs
		agg.FailedMsgs += r.FailedMsgs
		agg.DroppedFlits += r.DroppedFlits
		agg.Injected += r.Injected
		agg.InjectedHops += r.InjectedHops
		agg.SkippedSteps += r.SkippedSteps
		agg.MaxInFlight = max(agg.MaxInFlight, r.MaxInFlight)
	}
	return agg, delivered, nil
}
