// Command routesim runs the §7 bit-serial routing experiments from the
// command line: random-permutation traffic on Q_n under several
// routing strategies, reporting completion steps.
//
// The buffered-switching strategies are independent simulations, so
// they are dispatched as one netsim.SimulateBatch call and run across
// GOMAXPROCS workers; wormhole switching (which can deadlock and
// reports through a different result type) runs separately. Output
// order is fixed regardless of scheduling.
//
// With -obs, each strategy additionally reports its latency and
// queue-depth distributions (p50/p95/p99) through an attached
// observation probe; -trace exports the full event stream as JSONL.
// Either flag switches to serial execution so the probe observes one
// run at a time — the step counts themselves are unchanged (attaching
// a probe never changes results).
//
// With -arrival, the selected buffered strategies run *open-loop*
// instead: their message sets become route templates, a seeded arrival
// process (poisson, mmpp, pareto, or lognormal at -rate mean arrivals
// per step) injects -arrivals instances over time, and the report adds
// in-flight and leap-step accounting. -shards composes: the sharded
// open-loop engine is bit-identical to the single-shard one, so the
// numbers do not depend on the shard count.
//
// Beyond the classical entries, -strategy also accepts the routing
// strategy zoo (internal/routing): dimorder (e-cube through the
// strategy layer), minimal (random minimal order with per-link load
// accounting), and adaptive (feedback-driven re-planning). In
// open-loop mode the adaptive strategy runs windowed (-windows):
// routes are re-drawn between measurement windows on observed
// queue-depth feedback, and under -fault-p it learns dead links as the
// engine reports them; this path is single-shard.
//
// Usage:
//
//	routesim -n 4 -flits 64 -seed 42
//	routesim -n 8 -flits 128 -strategy ccc
//	routesim -n 4 -strategy valiant -obs -trace valiant.jsonl
//	routesim -n 4 -arrival poisson -rate 0.2 -arrivals 2000 -shards 4 -obs
//	routesim -n 4 -strategy adaptive -arrival poisson -rate 0.3 -fault-p 0.02 -windows 4
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"multipath"
	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/routing"
	"multipath/internal/traffic"
)

func main() {
	n := flag.Int("n", 4, "CCC levels (host is Q_{n+log n}); must be a power of two")
	flits := flag.Int("flits", 64, "message length in flits")
	seed := flag.Int64("seed", 42, "permutation seed")
	strategy := flag.String("strategy", "all", "ecube-sf | ecube-ct | ecube-wh | valiant | ccc | dimorder | minimal | adaptive | all")
	windows := flag.Int("windows", 4, "open-loop measurement windows for the adaptive strategy's feedback re-planning")
	obs := flag.Bool("obs", false, "report latency and queue-depth distributions per strategy")
	tracePath := flag.String("trace", "", "write a JSONL event trace of every run here")
	shards := flag.Int("shards", 1, "shard workers per buffered simulation (>1 uses the partitioned engine; results are identical)")
	arrival := flag.String("arrival", "", "open-loop arrival process: poisson | mmpp | pareto | lognormal (empty: closed-loop)")
	rate := flag.Float64("rate", 0.1, "open-loop mean arrival rate (arrivals per step)")
	arrivals := flag.Int("arrivals", 2000, "open-loop arrival count")
	faultP := flag.Float64("fault-p", 0, "open-loop Bernoulli link-fault probability (permanent, per directed link)")
	faultSeed := flag.Int64("fault-seed", 1, "fault draw seed (couples the fault sets across -fault-p values)")
	faultBurst := flag.String("fault-burst", "", "add a transient outage epoch from:until (steps) drawn at -fault-p, e.g. 16:48")
	flag.Parse()

	ol := openLoopCfg{
		process: *arrival, rate: *rate, arrivals: *arrivals,
		faultP: *faultP, faultSeed: *faultSeed, faultBurst: *faultBurst,
	}
	if err := run(*n, *flits, *seed, *strategy, *obs, *tracePath, *shards, *windows, ol); err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
}

// openLoopCfg selects and parameterizes the open-loop arrival process;
// an empty process name keeps the classical closed-loop runs.
type openLoopCfg struct {
	process  string
	rate     float64
	arrivals int
	// faultP > 0 runs the open-loop strategies over a degraded fabric:
	// a permanent Bernoulli link-fault draw at faultSeed, optionally
	// composed (faults.Union) with a transient BernoulliWindow outage
	// epoch parsed from faultBurst ("from:until").
	faultP     float64
	faultSeed  int64
	faultBurst string
}

// strategyEntry is one selected strategy's prepared workload. Routing-
// zoo entries also carry their strategy and pair list (strat/pairs) so
// the open-loop path can re-draw routes per window, plus the host's
// full directed-link count for the fault draw (a re-planning strategy
// may cross links absent from the initial template set).
type strategyEntry struct {
	name     string
	wormhole bool
	msgs     []*netsim.Message
	mode     netsim.Mode
	strat    routing.Strategy
	pairs    []routing.Pair
	host     *hypercube.Q
	links    int
	flits    int
}

func run(n, flits int, seed int64, strategy string, obs bool, tracePath string, shards, windows int, ol openLoopCfg) error {
	if shards < 0 {
		return fmt.Errorf("-shards must be nonnegative, got %d", shards)
	}
	if windows < 1 {
		return fmt.Errorf("-windows must be at least 1, got %d", windows)
	}
	if math.IsNaN(ol.faultP) || ol.faultP < 0 || ol.faultP > 1 {
		return fmt.Errorf("-fault-p must be in [0,1], got %v", ol.faultP)
	}
	mc, err := multipath.CCCMultiCopy(n)
	if err != nil {
		return err
	}
	q := mc.Host
	rng := rand.New(rand.NewSource(seed))
	perm := netsim.RandomPermutation(rng, q.Nodes())
	fmt.Printf("host Q_%d (%d nodes), %d-flit messages, random permutation (seed %d)\n",
		q.Dims(), q.Nodes(), flits, seed)

	// Build each selected strategy's message set eagerly, then hand the
	// buffered-switching runs to SimulateBatch in one shot. Only valiant
	// draws from rng beyond the permutation, so eager construction keeps
	// the historical seed→route mapping.
	var entries []strategyEntry
	want := func(name string) bool { return strategy == "all" || strategy == name }
	if want("ecube-sf") {
		entries = append(entries, strategyEntry{name: "ecube-sf",
			msgs: netsim.PermutationMessages(q, perm, flits), mode: netsim.StoreAndForward})
	}
	if want("ecube-ct") {
		entries = append(entries, strategyEntry{name: "ecube-ct",
			msgs: netsim.PermutationMessages(q, perm, flits), mode: netsim.CutThrough})
	}
	if want("ecube-wh") {
		entries = append(entries, strategyEntry{name: "ecube-wh", wormhole: true,
			msgs: netsim.PermutationMessages(q, perm, flits)})
	}
	if want("valiant") {
		entries = append(entries, strategyEntry{name: "valiant",
			msgs: netsim.ValiantMessages(q, perm, flits, rng), mode: netsim.CutThrough})
	}
	if want("ccc") {
		msgs, err := traffic.MultiCopyCCCMessages(mc, n, perm, flits)
		if err != nil {
			return fmt.Errorf("ccc: %w", err)
		}
		entries = append(entries, strategyEntry{name: "ccc", msgs: msgs, mode: netsim.CutThrough})
	}
	// The routing strategy zoo: closed-loop runs use the templates drawn
	// here; the adaptive open-loop path re-draws from entry.strat per
	// window instead. Only explicit selection adds them ("all" keeps the
	// historical output stable).
	zoo := []struct {
		name string
		mk   func() routing.Strategy
	}{
		{"dimorder", func() routing.Strategy { return routing.NewDimOrder(q) }},
		{"minimal", func() routing.Strategy { return routing.NewMinimalOblivious(q) }},
		{"adaptive", func() routing.Strategy { return routing.NewAdaptive(q) }},
	}
	for _, z := range zoo {
		if strategy != z.name {
			continue
		}
		pairs := routing.PermutationPairs(perm)
		msgs, err := routing.Templates(z.mk(), q, pairs, flits, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", z.name, err)
		}
		entries = append(entries, strategyEntry{name: z.name, msgs: msgs, mode: netsim.CutThrough,
			strat: z.mk(), pairs: pairs, host: q, links: q.DirectedEdges(), flits: flits})
	}
	if len(entries) == 0 {
		return fmt.Errorf("unknown strategy %q", strategy)
	}

	if ol.process != "" {
		return runOpenLoop(entries, ol, seed, obs, tracePath, shards, windows)
	}
	if ol.faultP != 0 || ol.faultBurst != "" {
		return fmt.Errorf("-fault-p and -fault-burst need the open-loop mode (set -arrival)")
	}

	if obs || tracePath != "" {
		return runObserved(entries, obs, tracePath, shards)
	}

	var jobs []netsim.BatchJob
	jobOf := make([]int, len(entries)) // entry index -> batch job index, -1 for wormhole
	for i, e := range entries {
		if e.wormhole {
			jobOf[i] = -1
			continue
		}
		jobOf[i] = len(jobs)
		jobs = append(jobs, netsim.BatchJob{Msgs: e.msgs, Mode: e.mode, Shards: shards})
	}
	results, err := netsim.SimulateBatch(jobs)
	if err != nil {
		return err
	}
	for i, e := range entries {
		var res *netsim.Result
		if e.wormhole {
			wr, err := netsim.SimulateWormhole(e.msgs)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			res = &wr.Result
		} else {
			res = results[jobOf[i]]
		}
		printResult(e.name, res)
	}
	return nil
}

func printResult(name string, res *netsim.Result) {
	fmt.Printf("%-9s steps=%-6d delivered=%-5d flit-hops=%-8d max-queue=%d\n",
		name, res.Steps, res.DeliveredMsgs, res.FlitsMoved, res.MaxLinkQueue)
}

// runObserved runs the strategies serially, each under a fresh
// Recorder (for the -obs distribution report) and a shared TraceWriter
// (for -trace; its run counter keeps strategies separable in the
// JSONL stream). Results are identical to the batch path — attaching a
// probe never changes them.
func runObserved(entries []strategyEntry, obs bool, tracePath string, shards int) error {
	var tw *obsv.TraceWriter
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = obsv.NewTraceWriter(f)
	}
	for _, e := range entries {
		rec := obsv.NewRecorder()
		var probe netsim.Probe = rec
		if tw != nil {
			probe = obsv.Multi(rec, tw)
		}
		var res *netsim.Result
		if e.wormhole {
			wr, err := netsim.SimulateWormholeProbed(e.msgs, probe)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			res = &wr.Result
		} else {
			r, err := netsim.SimulateShardedProbed(e.msgs, e.mode, shards, probe)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			res = r
		}
		printResult(e.name, res)
		if obs {
			fl, ml, qd := rec.FlitLatency.Summarize(), rec.MsgLatency.Summarize(), rec.QueueDepth.Summarize()
			fmt.Printf("          flit-lat p50/p95/p99=%d/%d/%d  msg-lat p50/p95/p99=%d/%d/%d  queue p95/max=%d/%d  busy=%.3f\n",
				fl.P50, fl.P95, fl.P99, ml.P50, ml.P95, ml.P99, qd.P95, qd.Max, meanOf(rec.BusyFraction.Samples()))
		}
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", tracePath)
	}
	return nil
}

// arrivalTrace draws the configured arrival process, parameterized so
// each has (where it exists) a mean rate of ol.rate arrivals per step:
// the Pareto scale is (α−1)/(α·rate) at tail exponent α = 1.2, and the
// log-normal location is −ln(rate) − σ²/2 at spread σ = 1.5. The trace
// is materialized so every shard count can replay it identically.
func arrivalTrace(ol openLoopCfg, seed int64, ntmpl int) (*netsim.Trace, error) {
	switch ol.process {
	case "poisson":
		return traffic.PoissonArrivals(seed, ol.rate, ol.arrivals, ntmpl)
	case "mmpp":
		return traffic.MMPPArrivals(seed, ol.rate/4, ol.rate*4, 200, ol.arrivals, ntmpl)
	case "pareto":
		const alpha = 1.2
		if ol.rate <= 0 {
			return nil, fmt.Errorf("-rate must be positive, got %v", ol.rate)
		}
		return traffic.ParetoArrivals(seed, alpha, (alpha-1)/(alpha*ol.rate), ol.arrivals, ntmpl)
	case "lognormal":
		const sigma = 1.5
		if ol.rate <= 0 {
			return nil, fmt.Errorf("-rate must be positive, got %v", ol.rate)
		}
		return traffic.LogNormalArrivals(seed, -math.Log(ol.rate)-sigma*sigma/2, sigma, ol.arrivals, ntmpl)
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want poisson, mmpp, pareto, or lognormal)", ol.process)
	}
}

// faultSchedule builds the open-loop fault oracle from the -fault-p /
// -fault-seed / -fault-burst flags for a template pool spanning
// numLinks directed links, or nil when faults are off.
func faultSchedule(ol openLoopCfg, numLinks int) (*faults.Schedule, error) {
	if ol.faultP == 0 {
		if ol.faultBurst != "" {
			return nil, fmt.Errorf("-fault-burst needs -fault-p > 0")
		}
		return nil, nil
	}
	sched := faults.Bernoulli(numLinks, ol.faultP, ol.faultSeed)
	if ol.faultBurst != "" {
		var from, until int
		if _, err := fmt.Sscanf(ol.faultBurst, "%d:%d", &from, &until); err != nil || from < 1 || until <= from {
			return nil, fmt.Errorf("-fault-burst wants from:until with 1 <= from < until, got %q", ol.faultBurst)
		}
		sched = faults.Union(sched, faults.BernoulliWindow(numLinks, ol.faultP, ol.faultSeed+911, from, until))
	}
	return sched, nil
}

// runOpenLoop runs each selected buffered strategy open-loop: its
// message set becomes the template pool and the configured arrival
// process injects instances over time through the sharded engine
// (shards ≤ 1 is exactly the single-shard engine, and every shard
// count is bit-identical). -fault-p degrades the fabric under the
// arrivals; the report then adds failed/dropped accounting. Wormhole
// switching has no open-loop model and is skipped with a note. A
// Feedback strategy (adaptive) instead runs windowed through
// routing.Run — routes re-drawn between windows on queue-depth
// feedback — which is single-shard and carries its own internal probe,
// so -trace skips it with a note.
func runOpenLoop(entries []strategyEntry, ol openLoopCfg, seed int64, obs bool, tracePath string, shards, windows int) error {
	var tw *obsv.TraceWriter
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = obsv.NewTraceWriter(f)
	}
	for _, e := range entries {
		if e.wormhole {
			fmt.Printf("%-9s skipped: wormhole switching has no open-loop model\n", e.name)
			continue
		}
		if fb, ok := e.strat.(routing.Feedback); ok && fb != nil {
			if err := runOpenLoopWindowed(e, ol, seed, obs, tracePath, windows); err != nil {
				return err
			}
			continue
		}
		tr, err := arrivalTrace(ol, seed, len(e.msgs))
		if err != nil {
			return err
		}
		// Two recorders: lat's MsgLatency histogram is the per-message
		// latency sink; rec aggregates probe events (queue depths).
		// They stay separate because Recorder.MsgDone folds completion
		// *steps* into its own MsgLatency, which in open-loop time is
		// not a latency.
		lat, rec := obsv.NewRecorder(), obsv.NewRecorder()
		numLinks := e.links
		for _, m := range e.msgs {
			for _, l := range m.Route {
				if int(l) >= numLinks {
					numLinks = int(l) + 1
				}
			}
		}
		sched, err := faultSchedule(ol, numLinks)
		if err != nil {
			return err
		}
		opts := netsim.OpenLoopOpts{Mode: e.mode, Sink: lat.MsgLatency}
		if sched != nil {
			opts.Faults = sched
		}
		if obs && tw != nil {
			opts.Probe = obsv.Multi(rec, tw)
		} else if obs {
			opts.Probe = rec
		} else if tw != nil {
			opts.Probe = tw
		}
		res, err := netsim.SimulateOpenLoopSharded(e.msgs, tr.Source(), opts, shards)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("%-9s steps=%-8d delivered=%-6d skipped=%-8d inflight-max=%-5d flit-hops=%d\n",
			e.name, res.Steps, res.DeliveredMsgs, res.SkippedSteps, res.MaxInFlight, res.FlitsMoved)
		if sched != nil {
			fmt.Printf("          faulty-links=%d failed=%d dropped-flit-hops=%d\n",
				sched.FaultyLinks(), res.FailedMsgs, res.DroppedFlits)
		}
		if obs {
			ml, qd := lat.MsgLatency.Summarize(), rec.QueueDepth.Summarize()
			fmt.Printf("          msg-lat p50/p95/p99=%d/%d/%d  queue p95/max=%d/%d\n",
				ml.P50, ml.P95, ml.P99, qd.P95, qd.Max)
		}
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", tracePath)
	}
	return nil
}

// runOpenLoopWindowed runs one Feedback strategy entry through the
// windowed routing.Run loop: the arrival trace is split into -windows
// contiguous windows, routes are re-drawn between them on the observed
// queue depths, and under faults the strategy learns dead links from
// the engine. The summary line matches the plain open-loop format with
// a windows count appended.
func runOpenLoopWindowed(e strategyEntry, ol openLoopCfg, seed int64, obs bool, tracePath string, windows int) error {
	if tracePath != "" {
		fmt.Printf("%-9s note: -trace is not supported for the windowed feedback path\n", e.name)
	}
	tr, err := arrivalTrace(ol, seed, len(e.pairs))
	if err != nil {
		return err
	}
	sched, err := faultSchedule(ol, e.links)
	if err != nil {
		return err
	}
	lat := obsv.NewRecorder()
	cfg := routing.RunConfig{
		Flits:   e.flits,
		Windows: windows,
		Seed:    seed,
		Mode:    e.mode,
		Sink:    lat.MsgLatency,
	}
	if sched != nil {
		cfg.Faults = sched
	}
	res, err := routing.Run(e.strat, e.host, e.pairs, tr, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	fmt.Printf("%-9s steps=%-8d delivered=%-6d skipped=%-8d inflight-max=%-5d flit-hops=%-8d windows=%d\n",
		e.name, res.Steps, res.DeliveredMsgs, res.SkippedSteps, res.MaxInFlight, res.FlitsMoved, res.Windows)
	if sched != nil {
		fmt.Printf("          faulty-links=%d failed=%d dropped-flit-hops=%d\n",
			sched.FaultyLinks(), res.FailedMsgs, res.DroppedFlits)
	}
	if obs {
		ml := lat.MsgLatency.Summarize()
		fmt.Printf("          msg-lat p50/p95/p99=%d/%d/%d\n", ml.P50, ml.P95, ml.P99)
	}
	return nil
}

func meanOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
