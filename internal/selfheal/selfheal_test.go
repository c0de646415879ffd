package selfheal

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/ida"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
)

// sliceSink collects latency observations for multiset comparison.
type sliceSink struct{ vals []int }

func (s *sliceSink) Observe(v int) { s.vals = append(s.vals, v) }

// transferRec is one PerTransfer record.
type transferRec struct {
	arrival, done int
	delivered     bool
	retries       int
}

func recordTransfers(m map[int32]transferRec) func(int32, int, int, bool, int) {
	return func(t int32, arrival, done int, delivered bool, retries int) {
		m[t] = transferRec{arrival, done, delivered, retries}
	}
}

func theorem1(t *testing.T, n int) *core.Embedding {
	t.Helper()
	e, err := cycles.Theorem1(n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sweepTrace spreads count arrivals round-robin over nb bundles, one
// batch of `rate` per step.
func sweepTrace(count, nb, rate int) *netsim.Trace {
	tr := &netsim.Trace{}
	for i := 0; i < count; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / rate, Tmpl: int32(i % nb)})
	}
	return tr
}

func TestSelfHealCleanFabric(t *testing.T) {
	e := theorem1(t, 4)
	sink := &sliceSink{}
	rep, err := Send(e, nil, sweepTrace(32, len(e.Paths), 4), Config{
		Mode:  netsim.StoreAndForward,
		Flits: 4,
		Sink:  sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 32 || rep.Delivered != 32 || rep.DeliveredFraction != 1 {
		t.Fatalf("clean fabric lost traffic: %+v", rep)
	}
	if rep.Retries != 0 || rep.Reroutes != 0 || rep.Abandoned != 0 || rep.DeadLinks != 0 || rep.DeadlineMisses != 0 {
		t.Fatalf("clean fabric reported healing work: %+v", rep)
	}
	if len(sink.vals) != 32 {
		t.Fatalf("sink saw %d latencies, want 32", len(sink.vals))
	}
	if rep.Engine.Injected != 32 {
		t.Fatalf("reroute strategy injected %d pieces for 32 transfers", rep.Engine.Injected)
	}
}

// TestSelfHealRerouteRecovers kills the first path of edge 0 under a
// live transfer: the piece dies and the session reroutes it onto the
// sibling path after the backoff delay. The transfer right behind it
// is already prefetched (the engine pulls one arrival ahead) so it
// still starts on the doomed path and heals the same way; a *third*
// transfer, emitted after the failure was observed, steers around the
// dead path from the start with zero retries.
func TestSelfHealRerouteRecovers(t *testing.T) {
	e := theorem1(t, 4)
	// Edge 0's bundle: path 0 = [2], path 1 = [0 6 20], path 2 = [1 10 25].
	sched := faults.NewSchedule().FailLink(2, 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{
		{Step: 0, Tmpl: 0},
		{Step: 10, Tmpl: 0},
		{Step: 20, Tmpl: 0},
	}}
	sink := &sliceSink{}
	repaired := &sliceSink{}
	perT := map[int32]transferRec{}
	rep, err := Send(e, []int{0}, tr, Config{
		Mode:         netsim.StoreAndForward,
		Flits:        2,
		MaxRetries:   2,
		Backoff:      FixedBackoff{Steps: 2},
		Faults:       sched,
		Sink:         sink,
		RepairedSink: repaired,
		PerTransfer:  recordTransfers(perT),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 3 || rep.Delivered != 3 {
		t.Fatalf("want all transfers delivered: %+v", rep)
	}
	if rep.Retries != 2 || rep.Reroutes != 2 {
		t.Fatalf("want two reroutes (first transfer and the prefetched one): %+v", rep)
	}
	if rep.DeadLinks != 1 || rep.Abandoned != 0 {
		t.Fatalf("want one dead link, no abandons: %+v", rep)
	}
	if rep.Engine.Injected != 5 || rep.Engine.FailedMsgs != 2 {
		t.Fatalf("engine pieces: %+v", rep.Engine)
	}
	// Transfers 0 and 1 needed a retry; transfer 2 learned from them.
	if r := perT[0]; !r.delivered || r.retries != 1 {
		t.Fatalf("transfer 0 record %+v, want delivered after 1 retry", r)
	}
	if r := perT[1]; !r.delivered || r.retries != 1 {
		t.Fatalf("transfer 1 record %+v, want delivered after 1 retry (prefetched before the kill)", r)
	}
	if r := perT[2]; !r.delivered || r.retries != 0 {
		t.Fatalf("transfer 2 record %+v, want delivered with 0 retries (dead path avoided)", r)
	}
	if len(sink.vals) != 3 || len(repaired.vals) != 2 {
		t.Fatalf("sinks: all %v repaired %v", sink.vals, repaired.vals)
	}
	// Post-repair latency includes failure detection plus backoff, so
	// it strictly exceeds the steered transfer's clean 3-hop latency.
	steered := perT[2].done - perT[2].arrival
	for _, v := range repaired.vals {
		if v <= steered {
			t.Fatalf("repaired latency %d should exceed the steered transfer's %d", v, steered)
		}
	}
}

// TestSelfHealNoSurvivingPath kills every path of the bundle: the
// transfer cycles through the siblings it can blame and is abandoned
// once no path survives, bounded by MaxRetries.
func TestSelfHealNoSurvivingPath(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.NewSchedule().FailLink(2, 1).FailLink(0, 1).FailLink(1, 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	rep, err := Send(e, []int{0}, tr, Config{
		Mode:       netsim.StoreAndForward,
		Flits:      2,
		MaxRetries: 5,
		Faults:     sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Abandoned != 1 {
		t.Fatalf("want the transfer abandoned: %+v", rep)
	}
	if rep.Retries > 2 {
		t.Fatalf("cycled more than the surviving siblings: %+v", rep)
	}
	if rep.DeadLinks == 0 {
		t.Fatalf("no dead links learned: %+v", rep)
	}
}

// TestSelfHealDeadline pins the deadline policy: a backoff that can
// only land past the deadline abandons instead of injecting, and the
// miss is counted; a permissive deadline delivers.
func TestSelfHealDeadline(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.NewSchedule().FailLink(2, 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	base := Config{
		Mode:       netsim.StoreAndForward,
		Flits:      2,
		MaxRetries: 3,
		Faults:     sched,
	}

	tight := base
	tight.Backoff = FixedBackoff{Steps: 30}
	tight.Deadline = 10
	rep, err := Send(e, []int{0}, tr, tight)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Abandoned != 1 || rep.DeadlineMisses != 1 || rep.Retries != 0 {
		t.Fatalf("tight deadline: %+v", rep)
	}
	if rep.DeadlineMissFraction != 1 {
		t.Fatalf("tight deadline miss fraction %v", rep.DeadlineMissFraction)
	}

	loose := base
	loose.Backoff = FixedBackoff{Steps: 30}
	loose.Deadline = 100
	rep, err = Send(e, []int{0}, tr, loose)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.DeadlineMisses != 0 || rep.Retries != 1 {
		t.Fatalf("loose deadline: %+v", rep)
	}
}

// TestSelfHealExpBackoffReplayable pins ExpBackoff determinism: the
// jitter is a stateless hash, so identical runs produce identical
// reports, and a different seed may produce different retry timing but
// the same delivery outcome on this fabric.
func TestSelfHealExpBackoffReplayable(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.Union(
		faults.Bernoulli(e.Host.DirectedEdges(), 0.06, 11),
		faults.NewSchedule().FailLink(2, 1),
	)
	cfg := Config{
		Mode:       netsim.StoreAndForward,
		Flits:      3,
		MaxRetries: 4,
		Backoff:    ExpBackoff{Base: 1, Cap: 16, Jitter: 0.5, Seed: 42},
		Faults:     sched,
		StepLimit:  4000,
	}
	trace := sweepTrace(48, len(e.Paths), 2)
	first, err := Send(e, nil, trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Send(e, nil, trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("ExpBackoff run not replayable:\n%+v\n%+v", first, again)
	}
	if first.Retries == 0 {
		t.Fatalf("fault mix produced no retries: %+v", first)
	}
	// Delay itself: pure function of (attempt, id).
	b := ExpBackoff{Base: 2, Cap: 32, Jitter: 0.3, Seed: 7}
	for attempt := 1; attempt <= 8; attempt++ {
		d1, d2 := b.Delay(attempt, 5), b.Delay(attempt, 5)
		if d1 != d2 {
			t.Fatalf("Delay(%d, 5) nondeterministic: %d vs %d", attempt, d1, d2)
		}
		if d1 < 1 {
			t.Fatalf("Delay(%d, 5) = %d < 1", attempt, d1)
		}
	}
}

// TestSelfHealIDA pins the zero-retry alternative: with K = 2 of
// width 3, one dead path costs nothing; two dead paths sink the
// transfer without any retry traffic.
func TestSelfHealIDA(t *testing.T) {
	e := theorem1(t, 4)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	base := Config{
		Mode:     netsim.StoreAndForward,
		Flits:    4,
		Strategy: IDA,
		K:        2,
	}

	one := base
	one.Faults = faults.NewSchedule().FailLink(2, 1)
	rep, err := Send(e, []int{0}, tr, one)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.Retries != 0 || rep.Abandoned != 0 {
		t.Fatalf("IDA with one dead path: %+v", rep)
	}
	if rep.Engine.Injected != 3 || rep.Engine.FailedMsgs != 1 {
		t.Fatalf("IDA pieces: %+v", rep.Engine)
	}

	two := base
	two.Faults = faults.NewSchedule().FailLink(2, 1).FailLink(0, 1)
	rep, err = Send(e, []int{0}, tr, two)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.Retries != 0 || rep.Abandoned != 1 {
		t.Fatalf("IDA with two dead paths: %+v", rep)
	}
}

// TestSelfHealShardInvariance is the tentpole determinism claim at the
// session level: the full Report, the PerTransfer records, and the
// latency multisets are identical at every shard count, for both
// strategies, under a coupled-Bernoulli fault draw.
func TestSelfHealShardInvariance(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.08, 3)
	trace := sweepTrace(64, len(e.Paths), 4)
	for _, strat := range []Strategy{Reroute, IDA} {
		var baseRep *Report
		var basePerT map[int32]transferRec
		var baseSink []int
		for _, shards := range []int{1, 2, 3, 8} {
			perT := map[int32]transferRec{}
			sink := &sliceSink{}
			rep, err := Send(e, nil, trace, Config{
				Mode:        netsim.StoreAndForward,
				Flits:       3,
				Strategy:    strat,
				K:           2,
				MaxRetries:  3,
				Backoff:     ExpBackoff{Base: 1, Jitter: 0.4, Seed: 9},
				Faults:      sched,
				StepLimit:   4000,
				Shards:      shards,
				Sink:        sink,
				PerTransfer: recordTransfers(perT),
			})
			if err != nil {
				t.Fatalf("%v/shards=%d: %v", strat, shards, err)
			}
			slices.Sort(sink.vals)
			if baseRep == nil {
				baseRep, basePerT, baseSink = rep, perT, sink.vals
				continue
			}
			if !reflect.DeepEqual(rep, baseRep) {
				t.Fatalf("%v/shards=%d: report diverged:\n%+v\nvs shards=1\n%+v", strat, shards, *rep, *baseRep)
			}
			if !reflect.DeepEqual(perT, basePerT) {
				t.Fatalf("%v/shards=%d: per-transfer records diverged", strat, shards)
			}
			if !reflect.DeepEqual(sink.vals, baseSink) {
				t.Fatalf("%v/shards=%d: latency multiset diverged", strat, shards)
			}
		}
		if baseRep.Transfers != 64 {
			t.Fatalf("%v: %d transfers, want 64", strat, baseRep.Transfers)
		}
	}
}

// TestSelfHealConservation generalizes the conservation invariant over
// the healed run: every injected piece is delivered or failed, flits
// are conserved, and the injected total decomposes into base pieces
// plus retries (moved + dropped + rerouted accounting).
func TestSelfHealConservation(t *testing.T) {
	e := theorem1(t, 4)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.3, 17)
	perT := map[int32]transferRec{}
	rep, err := Send(e, nil, sweepTrace(96, len(e.Paths), 3), Config{
		Mode:        netsim.StoreAndForward,
		Flits:       2,
		MaxRetries:  4,
		Backoff:     FixedBackoff{Steps: 1},
		Faults:      sched,
		StepLimit:   8000,
		PerTransfer: recordTransfers(perT),
	})
	if err != nil {
		t.Fatal(err)
	}
	en := &rep.Engine
	if en.TimedOut {
		t.Fatalf("run timed out; the decomposition below assumes a drained run: %+v", en)
	}
	if en.FlitsMoved+en.DroppedFlits != en.InjectedHops {
		t.Fatalf("flit conservation: moved %d + dropped %d != injected hops %d",
			en.FlitsMoved, en.DroppedFlits, en.InjectedHops)
	}
	if en.DeliveredMsgs+en.FailedMsgs != en.Injected {
		t.Fatalf("piece conservation: delivered %d + failed %d != injected %d",
			en.DeliveredMsgs, en.FailedMsgs, en.Injected)
	}
	// Reroute strategy: one base piece per transfer, so injected ==
	// transfers + retries (the run drained, so every emission entered).
	if en.Injected != rep.Transfers+rep.Retries {
		t.Fatalf("injected %d != transfers %d + retries %d", en.Injected, rep.Transfers, rep.Retries)
	}
	// Path cycling never reuses a path containing the blamed link, so
	// every retry here is a reroute.
	if rep.Retries != rep.Reroutes {
		t.Fatalf("retries %d != reroutes %d", rep.Retries, rep.Reroutes)
	}
	if rep.Retries < 5 || rep.Abandoned == 0 {
		t.Fatalf("fault mix too tame to exercise healing: %+v", rep)
	}
	sum := 0
	for _, r := range perT {
		sum += r.retries
	}
	if sum != rep.Retries {
		t.Fatalf("per-transfer retries sum %d != report retries %d", sum, rep.Retries)
	}
	if len(perT) != rep.Transfers {
		t.Fatalf("PerTransfer fired %d times for %d transfers", len(perT), rep.Transfers)
	}
}

// TestSelfHealTimeout pins StepLimit semantics: in-flight transfers at
// the limit are reported undelivered (done=-1), never retried (the run
// is over), and count as deadline misses when a deadline is set.
func TestSelfHealTimeout(t *testing.T) {
	e := theorem1(t, 4)
	perT := map[int32]transferRec{}
	rep, err := Send(e, []int{0}, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}, Config{
		Mode:        netsim.StoreAndForward,
		Flits:       8,
		Deadline:    50,
		StepLimit:   2,
		PerTransfer: recordTransfers(perT),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Engine.TimedOut {
		t.Fatalf("run should have timed out: %+v", rep.Engine)
	}
	if rep.Delivered != 0 || rep.Retries != 0 || rep.Abandoned != 0 || rep.DeadlineMisses != 1 {
		t.Fatalf("timeout accounting: %+v", rep)
	}
	if r := perT[0]; r.delivered || r.done != -1 {
		t.Fatalf("timed-out transfer record %+v", r)
	}
}

// TestSelfHealValidation covers the argument errors.
func TestSelfHealValidation(t *testing.T) {
	e := theorem1(t, 4)
	if _, err := Send(e, nil, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 99}}}, Config{}); err == nil {
		t.Fatal("out-of-range bundle accepted")
	}
	if _, err := Send(e, nil, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 5, Tmpl: 0}, {Step: 1, Tmpl: 0}}}, Config{}); err == nil {
		t.Fatal("decreasing steps accepted")
	}
	if _, err := Send(e, []int{-1}, &netsim.Trace{}, Config{}); err == nil {
		t.Fatal("negative edge index accepted")
	}
}

// TestSelfHealTransientOutage: an outage that ends only delays the
// Reroute transfer crossing the link. Nothing fails, so there is no
// retry and no dead link, and completion moves by the outage's length.
func TestSelfHealTransientOutage(t *testing.T) {
	e := theorem1(t, 4)
	ids, err := e.Host.PathEdgeIDs(e.Paths[0][0])
	if err != nil {
		t.Fatal(err)
	}
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	run := func(f netsim.LinkFaults) (*Report, transferRec) {
		t.Helper()
		perT := map[int32]transferRec{}
		rep, err := Send(e, []int{0}, tr, Config{
			Mode:        netsim.StoreAndForward,
			Flits:       4,
			MaxRetries:  2,
			Faults:      f,
			PerTransfer: recordTransfers(perT),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, perT[0]
	}
	_, clean := run(nil)
	rep, late := run(faults.NewSchedule().FailLinkTransient(ids[0], 1, 6))
	if !clean.delivered || clean.done != 4 {
		t.Fatalf("clean transfer %+v, want delivered at step 4", clean)
	}
	if !late.delivered || late.done != 9 {
		t.Fatalf("transfer under a [1, 6) outage %+v, want delivered at step 9", late)
	}
	if rep.Retries != 0 || rep.DeadLinks != 0 || rep.Abandoned != 0 {
		t.Fatalf("a transient outage caused healing work: %+v", rep)
	}
}

// TestSelfHealUnboundedFaultModel: a fault model with no horizon
// (faults.PerStep) needs a StepLimit, and with one the run times out
// gracefully. Every link down at every step is transient, so the
// transfer waits to the limit without a retry.
func TestSelfHealUnboundedFaultModel(t *testing.T) {
	e := theorem1(t, 4)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	cfg := Config{Mode: netsim.CutThrough, MaxRetries: 1, Faults: &faults.PerStep{P: 1, Seed: 3}}
	_, err := Send(e, []int{0}, tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "unbounded fault schedule requires OpenLoopOpts.StepLimit") {
		t.Fatalf("unbounded model without StepLimit: err %v", err)
	}
	cfg.StepLimit = 32
	rep, err := Send(e, []int{0}, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Engine.TimedOut || rep.Delivered != 0 || rep.Retries != 0 {
		t.Fatalf("p=1 per-step model with StepLimit: %+v", rep)
	}
}

// TestSelfHealProbe: attaching Config.Probe observes the run without
// changing its Report, for both strategies.
func TestSelfHealProbe(t *testing.T) {
	e := theorem1(t, 4)
	trace := sweepTrace(48, len(e.Paths), 4)
	for _, strat := range []Strategy{Reroute, IDA} {
		cfg := Config{
			Mode:       netsim.CutThrough,
			Flits:      3,
			Strategy:   strat,
			K:          2,
			MaxRetries: 2,
			Faults:     faults.Bernoulli(e.Host.DirectedEdges(), 0.08, 3),
		}
		bare, err := Send(e, nil, trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := obsv.NewRecorder()
		cfg.Probe = rec
		probed, err := Send(e, nil, trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Fatalf("%v: probe changed the report:\nbare   %+v\nprobed %+v", strat, *bare, *probed)
		}
		en := &probed.Engine
		if rec.Runs != 1 || rec.Delivered != en.DeliveredMsgs || rec.Failed != en.FailedMsgs {
			t.Fatalf("%v: probe saw %d runs, %d delivered, %d failed; engine %+v",
				strat, rec.Runs, rec.Delivered, rec.Failed, *en)
		}
		if en.FailedMsgs == 0 {
			t.Fatalf("%v: fault draw failed no piece", strat)
		}
	}
}

// burstTrace starts one transfer per bundle, all at step 0.
func burstTrace(nb int) *netsim.Trace {
	tr := &netsim.Trace{Arrivals: make([]netsim.Arrival, nb)}
	for i := range tr.Arrivals {
		tr.Arrivals[i].Tmpl = int32(i)
	}
	return tr
}

// firstLinks returns the first host link of each path of guest edge
// edge, in path order.
func firstLinks(t *testing.T, e *core.Embedding, edge int) []int {
	t.Helper()
	var links []int
	for _, p := range e.Paths[edge] {
		ids, err := e.Host.PathEdgeIDs(p)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, ids[0])
	}
	return links
}

// TestSelfHealFaultFreeDelivery: on a clean fabric, both strategies
// deliver a burst of one transfer per guest edge with no healing work
// and no lost piece, each at a latency in [1, Steps].
func TestSelfHealFaultFreeDelivery(t *testing.T) {
	e := theorem1(t, 6)
	for _, strat := range []Strategy{Reroute, IDA} {
		perT := map[int32]transferRec{}
		rep, err := Send(e, nil, burstTrace(len(e.Paths)), Config{
			Mode:        netsim.CutThrough,
			Flits:       8,
			Strategy:    strat,
			K:           2,
			PerTransfer: recordTransfers(perT),
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if rep.Transfers != len(e.Paths) || rep.Delivered != rep.Transfers || rep.DeliveredFraction != 1 {
			t.Fatalf("%v: not all delivered: %+v", strat, rep)
		}
		if rep.Retries != 0 || rep.Abandoned != 0 || rep.DeadLinks != 0 {
			t.Fatalf("%v: clean fabric reported healing work: %+v", strat, rep)
		}
		en := &rep.Engine
		if en.FailedMsgs != 0 || en.DeliveredMsgs != en.Injected || en.Steps <= 0 {
			t.Fatalf("%v: pieces lost or degenerate clock without faults: %+v", strat, *en)
		}
		for tr, r := range perT {
			if !r.delivered || r.done-r.arrival < 1 || r.done > en.Steps {
				t.Fatalf("%v: transfer %d record %+v (Steps %d)", strat, tr, r, en.Steps)
			}
		}
	}
}

// TestSelfHealDeterministic: the same configuration twice gives an
// identical Report and identical per-transfer records, for both
// strategies, under a Bernoulli fault draw.
func TestSelfHealDeterministic(t *testing.T) {
	e := theorem1(t, 6)
	sched := faults.Bernoulli(e.Host.DirectedEdges(), 0.05, 11)
	for _, strat := range []Strategy{Reroute, IDA} {
		run := func() (*Report, map[int32]transferRec) {
			t.Helper()
			perT := map[int32]transferRec{}
			rep, err := Send(e, nil, burstTrace(len(e.Paths)), Config{
				Mode:        netsim.CutThrough,
				Flits:       6,
				Strategy:    strat,
				K:           2,
				MaxRetries:  2,
				Faults:      sched,
				PerTransfer: recordTransfers(perT),
			})
			if err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
			return rep, perT
		}
		a, recA := run()
		b, recB := run()
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(recA, recB) {
			t.Fatalf("%v: nondeterministic:\n%+v\n%+v", strat, *a, *b)
		}
		if a.Engine.FailedMsgs == 0 {
			t.Fatalf("%v: fault draw failed no piece", strat)
		}
	}
}

// TestSelfHealSinglePathFailover: a permanent fault on the first link
// of edge 0's first path sinks a Reroute transfer that may not retry;
// with retries it fails over onto a sibling path after exactly one
// retry, and the session learns that one dead link.
func TestSelfHealSinglePathFailover(t *testing.T) {
	e := theorem1(t, 6)
	sched := faults.NewSchedule().FailLink(firstLinks(t, e, 0)[0], 1)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	cfg := Config{Mode: netsim.StoreAndForward, Flits: 4, Faults: sched}

	noRetry, err := Send(e, []int{0}, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noRetry.Delivered != 0 || noRetry.Abandoned != 1 || noRetry.Retries != 0 {
		t.Fatalf("delivered without retries across a dead first path: %+v", noRetry)
	}

	perT := map[int32]transferRec{}
	cfg.MaxRetries = 2
	cfg.PerTransfer = recordTransfers(perT)
	rep, err := Send(e, []int{0}, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := perT[0]; !r.delivered || r.retries != 1 {
		t.Fatalf("transfer record %+v, want failover delivery after 1 retry", r)
	}
	if rep.Reroutes != 1 || rep.DeadLinks != 1 || rep.Abandoned != 0 {
		t.Fatalf("want one reroute around one dead link: %+v", rep)
	}
}

// TestSelfHealIDAToleratesPathLoss: with K = width−1, IDA absorbs a
// dead path with no retry: exactly one piece is lost, the other
// width−1 land, and the transfer is delivered.
func TestSelfHealIDAToleratesPathLoss(t *testing.T) {
	e := theorem1(t, 6)
	w := len(e.Paths[0])
	if w < 2 {
		t.Fatalf("need width ≥ 2, got %d", w)
	}
	sched := faults.NewSchedule().FailLink(firstLinks(t, e, 0)[0], 1)
	rep, err := Send(e, []int{0}, &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}, Config{
		Mode:     netsim.CutThrough,
		Flits:    8,
		Strategy: IDA,
		K:        w - 1,
		Faults:   sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.Retries != 0 || rep.Abandoned != 0 {
		t.Fatalf("wanted zero-retry IDA delivery: %+v", rep)
	}
	if en := &rep.Engine; en.Injected != w || en.DeliveredMsgs != w-1 || en.FailedMsgs != 1 {
		t.Fatalf("wanted exactly one lost piece of %d: %+v", w, *en)
	}
}

// TestSelfHealBadEdgeIndex: an edge index past the last guest edge is
// rejected (TestSelfHealValidation covers a negative one).
func TestSelfHealBadEdgeIndex(t *testing.T) {
	e := theorem1(t, 6)
	for _, edge := range []int{len(e.Paths), len(e.Paths) + 7} {
		if _, err := Send(e, []int{edge}, &netsim.Trace{}, Config{}); err == nil {
			t.Fatalf("edge index %d of %d accepted", edge, len(e.Paths))
		}
	}
}

// TestSelfHealRetryRerouteDeadlineAccounting: Retries, Reroutes and
// DeadlineMisses classify the healing work. A failover is one retry
// that is also a reroute; a deadline one step tighter than the
// failover latency flags the delivery as a miss without changing its
// routing; an undelivered transfer always misses its deadline.
func TestSelfHealRetryRerouteDeadlineAccounting(t *testing.T) {
	e := theorem1(t, 6)
	links := firstLinks(t, e, 0)
	tr := &netsim.Trace{Arrivals: []netsim.Arrival{{Step: 0, Tmpl: 0}}}
	run := func(sched *faults.Schedule, deadline int) (*Report, transferRec) {
		t.Helper()
		perT := map[int32]transferRec{}
		cfg := Config{
			Mode:        netsim.StoreAndForward,
			Flits:       4,
			MaxRetries:  2,
			Deadline:    deadline,
			PerTransfer: recordTransfers(perT),
		}
		if sched != nil {
			cfg.Faults = sched
		}
		rep, err := Send(e, []int{0}, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep, perT[0]
	}

	if clean, _ := run(nil, 0); clean.Retries != 0 || clean.Reroutes != 0 || clean.DeadlineMisses != 0 {
		t.Fatalf("clean run accounted healing work: %+v", clean)
	}

	sched := faults.NewSchedule().FailLink(links[0], 1)
	rep, rec := run(sched, 0)
	if rep.Retries != 1 || rep.Reroutes != 1 {
		t.Fatalf("failover should be one retry, one reroute: %+v", rep)
	}
	if rep.DeadlineMisses != 0 {
		t.Fatalf("no deadline configured, yet misses reported: %+v", rep)
	}
	lat := rec.done - rec.arrival

	// A deadline at the failover latency: delivered in time, no miss.
	if r, _ := run(sched, lat); r.Delivered != 1 || r.DeadlineMisses != 0 {
		t.Fatalf("deadline %d not missed by latency %d, yet: %+v", lat, lat, r)
	}
	// One step tighter: the same retry and delivery, now late.
	if r, _ := run(sched, lat-1); r.Delivered != 1 || r.Retries != 1 || r.DeadlineMisses != 1 {
		t.Fatalf("late delivery should count as a miss: %+v", r)
	}

	// Every path dead: the transfer is never delivered and misses.
	bundle := faults.NewSchedule()
	for _, l := range links {
		bundle.FailLink(l, 1)
	}
	if r, _ := run(bundle, 1000); r.Delivered != 0 || r.DeadlineMisses != 1 {
		t.Fatalf("undelivered transfer should miss its deadline: %+v", r)
	}
}

// e23Probs and e23Seeds are cmd/mpbench's E23 sweep.
var e23Probs = []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}

const e23Seeds = 5

// e23Embeddings are E23's hosts: Theorems 1 and 2 at n = 8.
func e23Embeddings(t *testing.T) map[string]*core.Embedding {
	t.Helper()
	e2, err := cycles.Theorem2(8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Embedding{"theorem1": theorem1(t, 8), "theorem2": e2}
}

// e23Send runs one E23 session: every guest edge of e starts one
// 8-flit cut-through transfer at step 0 under sched.
func e23Send(t *testing.T, e *core.Embedding, sched *faults.Schedule, cfg Config) *Report {
	t.Helper()
	cfg.Mode, cfg.Flits, cfg.Faults = netsim.CutThrough, 8, sched
	rep, err := Send(e, nil, burstTrace(len(e.Paths)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSelfHealIDAMatchesPathSurvival is an oracle for E23 that shares
// no code with the engine. Under permanent faults from step 1, a
// zero-retry IDA transfer lands iff at least K of its paths avoid every
// dead link, which ida.FaultTolerantSend decides by path inspection
// alone. Every (edge, K, p, seed) case of E23's sweep must agree.
func TestSelfHealIDAMatchesPathSurvival(t *testing.T) {
	data := []byte("routing multiple paths in hypercubes")
	for name, e := range e23Embeddings(t) {
		w := len(e.Paths[0])
		for _, k := range []int{1, (w + 1) / 2, w - 1, w} {
			for _, p := range e23Probs {
				for seed := int64(1); seed <= e23Seeds; seed++ {
					sched := faults.Bernoulli(e.Host.DirectedEdges(), p, seed)
					landed := make([]bool, len(e.Paths))
					e23Send(t, e, sched, Config{
						Strategy: IDA,
						K:        k,
						PerTransfer: func(tr int32, _, _ int, delivered bool, _ int) {
							landed[tr] = delivered
						},
					})
					model := ida.ModelOf(sched)
					for edge := range e.Paths {
						want, _, err := ida.FaultTolerantSend(e, edge, data, k, model)
						if err != nil {
							t.Fatal(err)
						}
						if landed[edge] != want.Delivered {
							t.Fatalf("%s K=%d p=%g seed=%d edge %d: simulated IDA landed=%v, %d of %d paths survive",
								name, k, p, seed, edge, landed[edge], want.Survivors, want.Paths)
						}
					}
				}
			}
		}
	}
}

// TestSelfHealRerouteMonotoneInFaultProbability: per seed, E23's
// single-path configuration (Reroute, one retry, default backoff)
// delivers a non-increasing fraction as p rises. faults.Bernoulli
// couples the draws, so the dead-link sets are nested across p. IDA's
// monotonicity follows from the oracle above.
func TestSelfHealRerouteMonotoneInFaultProbability(t *testing.T) {
	for name, e := range e23Embeddings(t) {
		for seed := int64(1); seed <= e23Seeds; seed++ {
			prev := 2.0
			for _, p := range e23Probs {
				sched := faults.Bernoulli(e.Host.DirectedEdges(), p, seed)
				rep := e23Send(t, e, sched, Config{MaxRetries: 1})
				if rep.DeliveredFraction > prev {
					t.Fatalf("%s seed %d: delivered fraction rose at p=%g: %g > %g",
						name, seed, p, rep.DeliveredFraction, prev)
				}
				prev = rep.DeliveredFraction
			}
		}
	}
}

// TestExpBackoffJitterRespectsCap pins the Cap-is-final-delay fix: an
// earlier version applied jitter after clamping, so delays escaped to
// Cap·(1+Jitter). Now no (attempt, id) draw may exceed Cap — while the
// E28 bench configuration (Base 2, Cap 32, Jitter 0.5, healMaxRetries
// 3) must keep its exact historical delays, which never reached the
// clamp (max pre-jitter delay 8, max post-jitter 12 < 32).
func TestExpBackoffJitterRespectsCap(t *testing.T) {
	b := ExpBackoff{Base: 3, Cap: 10, Jitter: 0.9, Seed: 11}
	for attempt := 1; attempt <= 12; attempt++ {
		for id := int32(0); id < 50; id++ {
			if d := b.Delay(attempt, id); d > b.Cap {
				t.Fatalf("Delay(%d, %d) = %d exceeds Cap %d", attempt, id, d, b.Cap)
			}
		}
	}
	e28 := ExpBackoff{Base: 2, Cap: 32, Jitter: 0.5, Seed: 1}
	for attempt := 1; attempt <= 4; attempt++ {
		for id := int32(0); id < 64; id++ {
			pre := 2 << (attempt - 1)
			want := pre + int(float64(pre)*0.5*faults.Hash01(1, int(id), attempt))
			if d := e28.Delay(attempt, id); d != want {
				t.Fatalf("E28 config Delay(%d, %d) = %d, want unchanged %d", attempt, id, d, want)
			}
		}
	}
}
