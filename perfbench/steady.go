package main

import (
	"fmt"
	"reflect"

	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/traffic"
)

// Open-loop sizes: E26's hotspot windows and trickle point, and one
// point of E27's whole-cube sweep at Q_14.
const (
	hotspotEdges = 64     // guest edges in a hotspot window
	hotspotN     = 100000 // arrivals per hotspot point
	trickleRate  = 0.01   // arrivals per step: the leap clock skips most steps
	trickleN     = 200000
	cubeFlits    = 4
	cubeLoad     = 0.8
	cubeWindow   = 15 // simulated steps the whole-cube trace covers
)

type loadPoint struct {
	process string
	load    float64 // share of the templates' closed-loop drain capacity
}

var hotspotPoints = []loadPoint{{"poisson", 0.2}, {"poisson", 1.0}, {"poisson", 2.0}, {"mmpp", 1.0}}

// setupSteady builds the templates; every op draws its arrivals from
// the seed (timed, in layer arrivals) and runs them open-loop on a
// clean fabric with a histogram sink. The whole-cube point runs on one
// and on two shards, which must agree exactly.
func setupSteady(seed int64) ([]op, error) {
	var ops []op
	input := 0
	next := func() int64 { input++; return derive(seed, input) }
	for _, c := range []construction{theorem1, theorem2} {
		e, err := c.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		window := *e
		window.Paths = window.Paths[:hotspotEdges]
		tmpls, err := traffic.WidthPathMessages(&window, drainFlits)
		if err != nil {
			return nil, err
		}
		rate, err := drainRate(tmpls)
		if err != nil {
			return nil, err
		}
		for _, pt := range hotspotPoints {
			s, lambda := next(), pt.load*rate
			name := fmt.Sprintf("hotspot/%s/%s%.1f", c.name, pt.process, pt.load)
			ops = append(ops, op{name, func(b *bench) error {
				_, _, err := openRun(b, "hotspot", tmpls, arrivals(pt.process, s, lambda, hotspotN, len(tmpls)), 1)
				return err
			}})
		}
		if c.name == theorem1.name {
			s := next()
			ops = append(ops, op{"trickle/" + c.name, func(b *bench) error {
				_, _, err := openRun(b, "trickle", tmpls, arrivals("poisson", s, trickleRate, trickleN, len(tmpls)), 1)
				return err
			}})
		}
	}

	e, err := cycles.Theorem1(14)
	if err != nil {
		return nil, err
	}
	cube, err := traffic.WidthPathMessages(e, cubeFlits)
	if err != nil {
		return nil, err
	}
	rate, err := drainRate(cube)
	if err != nil {
		return nil, err
	}
	s, lambda := next(), cubeLoad*rate
	draw := arrivals("poisson", s, lambda, int(lambda*cubeWindow)+1, len(cube))
	var want *netsim.OpenLoopResult
	var wantHist *obsv.Histogram
	ops = append(ops,
		op{"cube/1", func(b *bench) error {
			var err error
			want, wantHist, err = openRun(b, "cube", cube, draw, 1)
			return err
		}},
		op{"cube/2", func(b *bench) error {
			r, h, err := openRun(b, "cube", cube, draw, 2)
			if err != nil {
				return err
			}
			if want == nil || *r != *want || !reflect.DeepEqual(h, wantHist) {
				return fmt.Errorf("2-shard open-loop result %+v differs from 1-shard %+v", *r, want)
			}
			return nil
		}},
	)
	return ops, nil
}

// arrivalDraw is one op's timed arrival draw: the traffic call's name
// and the call itself.
type arrivalDraw struct {
	name string
	draw func() (*netsim.Trace, error)
}

// arrivals draws count arrivals over ntmpl templates at mean rate
// lambda per step. MMPP keeps the Poisson mean (equal dwell at 0.4λ and
// 1.6λ), as E26 does.
func arrivals(process string, seed int64, lambda float64, count, ntmpl int) arrivalDraw {
	if process == "mmpp" {
		return arrivalDraw{"MMPPArrivals", func() (*netsim.Trace, error) {
			return traffic.MMPPArrivals(seed, 0.4*lambda, 1.6*lambda, 200, count, ntmpl)
		}}
	}
	return arrivalDraw{"PoissonArrivals", func() (*netsim.Trace, error) {
		return traffic.PoissonArrivals(seed, lambda, count, ntmpl)
	}}
}

// openRun draws the arrivals, runs them open-loop over tmpls on the
// given number of shards, checks the result and summarizes the latency
// sink.
func openRun(b *bench, variant string, tmpls []*netsim.Message, a arrivalDraw, shards int) (*netsim.OpenLoopResult, *obsv.Histogram, error) {
	tr, err := call(b, "arrivals", a.name, a.draw)
	if err != nil {
		return nil, nil, err
	}
	b.count("arrivals.count", float64(len(tr.Arrivals)))
	h := obsv.NewHistogram(1, 1<<14)
	opts := netsim.OpenLoopOpts{Mode: netsim.CutThrough, MeasureAfter: warmupCutoff(tr), Sink: h}
	var r *netsim.OpenLoopResult
	if shards > 1 {
		r, err = call(b, "open", "SimulateOpenLoopSharded/"+variant, func() (*netsim.OpenLoopResult, error) {
			return netsim.SimulateOpenLoopSharded(tmpls, tr.Source(), opts, shards)
		})
	} else {
		r, err = call(b, "open", "SimulateOpenLoop/"+variant, func() (*netsim.OpenLoopResult, error) {
			return netsim.SimulateOpenLoop(tmpls, tr.Source(), opts)
		})
	}
	if err != nil {
		return nil, nil, err
	}
	if err := numbering(b, tmpls); err != nil {
		return nil, nil, err
	}
	if err := checkOpen(r, len(tr.Arrivals)); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", variant, err)
	}
	sum, _ := call(b, "obsv", "Summarize", func() (obsv.Summary, error) { return h.Summarize(), nil })
	b.hops += int64(r.FlitsMoved)
	b.count("open.flit_hops", float64(r.FlitsMoved))
	b.count("open.steps", float64(r.Steps))
	b.count("open.skipped_steps", float64(r.SkippedSteps))
	b.count("open.simulated_steps", float64(r.Steps-r.SkippedSteps))
	b.max("open.max_in_flight", float64(r.MaxInFlight))
	b.sum("%s %+v latency=%+v", variant, *r, sum)
	return r, h, nil
}

// drainRate is the message rate at load 1.0 over tmpls: the closed-loop
// cut-through drain rate in flit-hops per step, over the mean flit-hops
// of one message.
func drainRate(tmpls []*netsim.Message) (float64, error) {
	r, err := netsim.Simulate(tmpls, netsim.CutThrough)
	if err != nil {
		return 0, err
	}
	capacity := float64(r.FlitsMoved) / float64(max(r.Steps, 1))
	return capacity / (float64(injected(tmpls)) / float64(len(tmpls))), nil
}

// warmupCutoff is the step from which latencies feed the sink: the
// first fifth of the arrivals is the warm-up ramp.
func warmupCutoff(tr *netsim.Trace) int {
	if len(tr.Arrivals) == 0 {
		return 0
	}
	return tr.Arrivals[len(tr.Arrivals)/5].Step
}
