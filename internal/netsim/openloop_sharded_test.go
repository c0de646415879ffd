package netsim

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"multipath/internal/faults"
)

// olShardCounts spans the partition shapes the open-loop fusion must
// reproduce: a two-way split, an odd split, more shards than a small
// run's links (clamping to the single-shard fallback), and the
// benchmarked eight-way split.
var olShardCounts = []int{2, 3, 8, 64}

// olShardTrace builds a deterministic staggered arrival trace with
// same-step bursts, small gaps, and occasional long quiescent gaps, so
// both the contention path and the global-quiescence leap are
// exercised under shards.
func olShardTrace(ntmpl, n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{}
	step := 0
	for i := 0; i < n; i++ {
		if i%19 == 0 {
			step += 30 + rng.Intn(60)
		} else if rng.Intn(3) > 0 {
			step += rng.Intn(2)
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: step, Tmpl: int32(rng.Intn(ntmpl))})
	}
	return tr
}

// runShardedBoth runs the single-shard engine (the golden model here —
// itself pinned to the naive reference by runBoth) and the sharded
// engine on the same trace and asserts bit-identity: same
// OpenLoopResult including SkippedSteps, same per-message records,
// same latency multiset, same error text on the error paths.
func runShardedBoth(t *testing.T, tmpls []*Message, tr *Trace, opts OpenLoopOpts, shards int) (*OpenLoopResult, map[int32]msgRec) {
	t.Helper()
	wantRec := map[int32]msgRec{}
	wantSink := &sliceSink{}
	wOpts := opts
	wOpts.PerMessage = recordPerMsg(wantRec)
	wOpts.Sink = wantSink
	want, wantErr := SimulateOpenLoop(tmpls, tr.Source(), wOpts)

	gotRec := map[int32]msgRec{}
	gotSink := &sliceSink{}
	gOpts := opts
	gOpts.PerMessage = recordPerMsg(gotRec)
	gOpts.Sink = gotSink
	got, gotErr := SimulateOpenLoopSharded(tmpls, tr.Source(), gOpts, shards)

	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("shards=%d: error mismatch: single-shard %v, sharded %v", shards, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("shards=%d: error text mismatch: single-shard %q, sharded %q", shards, wantErr, gotErr)
		}
		return nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shards=%d: result diverged:\nsharded      %+v\nsingle-shard %+v", shards, got, want)
	}
	if !reflect.DeepEqual(gotRec, wantRec) {
		t.Fatalf("shards=%d: per-message records diverged:\nsharded      %v\nsingle-shard %v", shards, gotRec, wantRec)
	}
	slices.Sort(wantSink.vals)
	slices.Sort(gotSink.vals)
	if !reflect.DeepEqual(gotSink.vals, wantSink.vals) {
		t.Fatalf("shards=%d: latency sinks diverged:\nsharded      %v\nsingle-shard %v", shards, gotSink.vals, wantSink.vals)
	}
	return got, gotRec
}

// TestOpenLoopShardedEquivalence: for every workload, mode, and shard
// count, the sharded open-loop run must be bit-identical to the
// single-shard engine on a staggered trace, with conservation holding.
func TestOpenLoopShardedEquivalence(t *testing.T) {
	for name, tmpls := range shardedWorkloads() {
		tr := olShardTrace(len(tmpls), 4*len(tmpls)+8, 31)
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			for _, shards := range olShardCounts {
				opt, rec := runShardedBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode}, shards)
				if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
					t.Fatalf("%s/%v/shards=%d: conservation: moved %d + dropped %d != injected %d",
						name, mode, shards, opt.FlitsMoved, opt.DroppedFlits, opt.InjectedHops)
				}
				if len(rec) != opt.Injected {
					t.Fatalf("%s/%v/shards=%d: %d records for %d injected", name, mode, shards, len(rec), opt.Injected)
				}
			}
		}
	}
}

// TestOpenLoopShardedAllAtZeroMatchesSimulate extends the anchoring
// chain to the sharded path: an all-at-step-0 trace through
// SimulateOpenLoopSharded reproduces the step-driven Simulate exactly.
func TestOpenLoopShardedAllAtZeroMatchesSimulate(t *testing.T) {
	for name, tmpls := range shardedWorkloads() {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			closed, err := Simulate(tmpls, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			for _, shards := range olShardCounts {
				opt, err := SimulateOpenLoopSharded(tmpls, allAtZero(tmpls).Source(), OpenLoopOpts{Mode: mode}, shards)
				if err != nil {
					t.Fatalf("%s/%v/shards=%d: %v", name, mode, shards, err)
				}
				if opt.Result != *closed {
					t.Fatalf("%s/%v/shards=%d: all-at-0 %+v != Simulate %+v", name, mode, shards, opt.Result, *closed)
				}
			}
		}
	}
}

// TestOpenLoopShardedFaultsEquivalence drives the fault schedules of
// the closed-loop sharded suite through the open-loop fusion.
func TestOpenLoopShardedFaultsEquivalence(t *testing.T) {
	for name, tmpls := range shardedWorkloads() {
		tr := olShardTrace(len(tmpls), 3*len(tmpls)+6, 47)
		for schedName, sched := range shardedSchedules(tmpls) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				for _, shards := range olShardCounts {
					opt, _ := runShardedBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode, Faults: sched}, shards)
					if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
						t.Fatalf("%s/%s/%v/shards=%d: conservation violated", name, schedName, mode, shards)
					}
					if opt.DeliveredMsgs+opt.FailedMsgs != opt.Injected {
						t.Fatalf("%s/%s/%v/shards=%d: delivered %d + failed %d != injected %d",
							name, schedName, mode, shards, opt.DeliveredMsgs, opt.FailedMsgs, opt.Injected)
					}
				}
			}
		}
	}
}

// olCanonical sorts a recorded probe stream into a fully canonical
// per-step order: within a step, moves by (link, msg), kills by
// (msg, kind), deliveries by (msg, flit<done), then StepEnd. The
// single-shard engine emits deliveries in worklist order and the
// graceful-timeout sweep in slot-arena order, both
// arrival-history-dependent, so unlike the closed-loop comparison the
// kill batch is sorted too; per-step multisets and everything across
// steps remain exact.
func olCanonical(p *traceProbe) []probeEvent {
	out := append([]probeEvent(nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.step != b.step {
			return a.step < b.step
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.k1 != b.k1 {
			return a.k1 < b.k1
		}
		return a.k2 < b.k2
	})
	return out
}

// TestOpenLoopShardedProbeStream: an attached probe must observe an
// event stream that canonicalizes to the single-shard engine's — same
// per-step move/kill/delivery multisets, same queue samples, same
// step-end sequence (leapt steps never observed) — fault-free and
// under a killing schedule.
func TestOpenLoopShardedProbeStream(t *testing.T) {
	tmpls := shardedWorkloads()["permutation-q5"]
	tr := olShardTrace(len(tmpls), 50, 61)
	scheds := shardedSchedules(tmpls)
	for _, schedName := range []string{"empty", "mixed"} {
		sched := scheds[schedName]
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			ref := &traceProbe{}
			opts := OpenLoopOpts{Mode: mode, Faults: sched, Probe: ref}
			want, err := SimulateOpenLoop(tmpls, tr.Source(), opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", schedName, mode, err)
			}
			wantEv := olCanonical(ref)
			for _, shards := range olShardCounts {
				got := &traceProbe{}
				opts.Probe = got
				res, err := SimulateOpenLoopSharded(tmpls, tr.Source(), opts, shards)
				if err != nil {
					t.Fatalf("%s/%v/shards=%d: %v", schedName, mode, shards, err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("%s/%v/shards=%d: probed result diverged: %+v != %+v", schedName, mode, shards, res, want)
				}
				if got.info.Messages != -1 || got.info.Links != ref.info.Links {
					t.Fatalf("%s/%v/shards=%d: RunInfo diverged: %+v != %+v", schedName, mode, shards, got.info, ref.info)
				}
				gotEv := olCanonical(got)
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Errorf("%s/%v/shards=%d: probe streams differ\n got %d events want %d events\n%s",
						schedName, mode, shards, len(gotEv), len(wantEv), firstStreamDiff(gotEv, wantEv))
				}
			}
		}
	}
}

// TestOpenLoopShardedProbeStreamOrder pins the open loop's emission
// order at two or more shards, not only its per-step multisets: the
// raw stream must equal the one-shard stream with only its runs of
// moves and of deliveries sorted — moves by (link, msg), then the
// kills in ascending dense-link order, deliveries by msg, StepEnd, and
// a StepLimit sweep after the final StepEnd in message-id order.
func TestOpenLoopShardedProbeStreamOrder(t *testing.T) {
	for name, tmpls := range shardedWorkloads() {
		tr := olShardTrace(len(tmpls), 3*len(tmpls)+6, 83)
		for schedName, sched := range shardedSchedules(tmpls) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				for _, limit := range []int{0, 40} {
					ref := &traceProbe{}
					opts := OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: limit, Probe: ref}
					if _, err := SimulateOpenLoop(tmpls, tr.Source(), opts); err != nil {
						t.Fatalf("%s/%s/%v/limit=%d: %v", name, schedName, mode, limit, err)
					}
					want := sortRuns(ref.events)
					for _, shards := range olShardCounts {
						got := &traceProbe{}
						opts.Probe = got
						if _, err := SimulateOpenLoopSharded(tmpls, tr.Source(), opts, shards); err != nil {
							t.Fatalf("%s/%s/%v/limit=%d/shards=%d: %v", name, schedName, mode, limit, shards, err)
						}
						if !reflect.DeepEqual(got.events, want) {
							t.Errorf("%s/%s/%v/limit=%d/shards=%d: stream order differs: %s",
								name, schedName, mode, limit, shards, firstStreamDiff(got.events, want))
						}
					}
				}
			}
		}
	}
}

// TestOpenLoopShardedGracefulTimeout pins the StepLimit timeout under
// shards: in-flight messages fail at the limit, pending arrivals
// beyond it are never injected, and the whole outcome (result,
// records, probe stream with the timeout sweep after the final
// StepEnd) matches the single-shard engine.
func TestOpenLoopShardedGracefulTimeout(t *testing.T) {
	tmpls := []*Message{{Route: []int32{5, 6}, Flits: 2}, {Route: []int32{6, 7}, Flits: 1}}
	sched := faults.NewSchedule()
	sched.FailLinkTransient(5, 1, 5000)
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {1, 1}, {2, 0}, {3, 0}, {100, 0}}}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		ref := &traceProbe{}
		opts := OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: 20, Probe: ref}
		for _, shards := range olShardCounts {
			opt, rec := runShardedBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: 20}, shards)
			if !opt.TimedOut || opt.Steps != 20 {
				t.Fatalf("%v/shards=%d: TimedOut=%v Steps=%d, want timeout at 20", mode, shards, opt.TimedOut, opt.Steps)
			}
			if opt.Injected != 4 {
				t.Fatalf("%v/shards=%d: injected %d, want 4 (arrival at 100 is beyond the limit)", mode, shards, opt.Injected)
			}
			for msg, r := range rec {
				if !r.delivered && r.done != 20 {
					t.Fatalf("%v/shards=%d: msg %d: %+v, want failure step 20", mode, shards, msg, r)
				}
			}
		}
		want, err := SimulateOpenLoop(tmpls, tr.Source(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range olShardCounts {
			got := &traceProbe{}
			gOpts := opts
			gOpts.Probe = got
			res, err := SimulateOpenLoopSharded(tmpls, tr.Source(), gOpts, shards)
			if err != nil {
				t.Fatalf("%v/shards=%d: %v", mode, shards, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%v/shards=%d: probed timeout result diverged", mode, shards)
			}
			if !reflect.DeepEqual(olCanonical(got), olCanonical(ref)) {
				t.Errorf("%v/shards=%d: timeout probe streams differ: %s", mode, shards,
					firstStreamDiff(olCanonical(got), olCanonical(ref)))
			}
		}
		ref.events = ref.events[:0]
	}
}

// TestOpenLoopShardedStatsConservation checks the per-shard invariant
// moved + dropped == injected hops over the injected prefix, the
// per-shard sums against the global result, boundary traffic, and the
// shards=1 fallback stats.
func TestOpenLoopShardedStatsConservation(t *testing.T) {
	tmpls := shardedWorkloads()["permutation-q5"]
	tr := olShardTrace(len(tmpls), 60, 71)
	sched := shardedSchedules(tmpls)["mixed"]
	for _, f := range []LinkFaults{nil, sched} {
		want, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough, Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			res, stats, err := SimulateOpenLoopShardedStats(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough, Faults: f}, shards)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("shards=%d: stats run result diverged", shards)
			}
			sumMoved, sumDropped, sumInj, sumBoundary := 0, 0, 0, 0
			for k, st := range stats {
				if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
					t.Errorf("shards=%d shard %d: moved %d + dropped %d != injected %d",
						shards, k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
				}
				sumMoved += st.FlitsMoved
				sumDropped += st.DroppedFlits
				sumInj += st.InjectedHops
				sumBoundary += st.BoundaryOut
			}
			if sumMoved != res.FlitsMoved || sumDropped != res.DroppedFlits || sumInj != res.InjectedHops {
				t.Errorf("shards=%d: global sums diverge: moved %d/%d dropped %d/%d injected %d/%d",
					shards, sumMoved, res.FlitsMoved, sumDropped, res.DroppedFlits, sumInj, res.InjectedHops)
			}
			if shards > 1 && sumBoundary == 0 {
				t.Errorf("shards=%d: no boundary traffic on a permutation workload", shards)
			}
		}
	}
}

// TestOpenLoopShardedPoolReuse runs different workloads back to back
// through the pooled sharded open-loop engine to catch stale cross-run
// state (arena, free lists, rings, worklists, owner tables).
func TestOpenLoopShardedPoolReuse(t *testing.T) {
	wl := shardedWorkloads()
	order := []string{"permutation-q5", "empty-and-single", "shared-bottleneck", "permutation-q5", "chain"}
	for round := 0; round < 2; round++ {
		for _, name := range order {
			tmpls := wl[name]
			tr := olShardTrace(len(tmpls), 2*len(tmpls)+4, int64(13+round))
			runShardedBoth(t, tmpls, tr, OpenLoopOpts{Mode: StoreAndForward}, 3)
		}
	}
}

// TestOpenLoopShardedErrors pins the sharded validation contracts:
// negative shard counts, negative OpenLoopOpts fields, and identical
// error text (including the offending arrival index) on the shared
// error paths.
func TestOpenLoopShardedErrors(t *testing.T) {
	good := []*Message{{Route: []int32{0, 1}, Flits: 1}}
	tr := func() *Trace { return &Trace{Arrivals: []Arrival{{0, 0}}} }
	if _, err := SimulateOpenLoopSharded(good, tr().Source(), OpenLoopOpts{}, -2); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, _, err := SimulateOpenLoopShardedStats(good, tr().Source(), OpenLoopOpts{}, -1); err == nil {
		t.Error("negative shard count accepted by the stats entry point")
	}
	for name, opts := range map[string]OpenLoopOpts{
		"negative StepLimit":    {StepLimit: -5},
		"negative MeasureAfter": {MeasureAfter: -1},
	} {
		if _, err := SimulateOpenLoopSharded(good, tr().Source(), opts, 2); err == nil {
			t.Errorf("%s accepted by the sharded path", name)
		}
	}
	// Error-path equivalence, including error text: bad template ids,
	// decreasing steps (with the offending index), zero flits.
	bad := map[string]struct {
		tmpls []*Message
		tr    *Trace
	}{
		"zero flits":            {[]*Message{{Route: []int32{0}, Flits: 0}}, tr()},
		"template out of range": {good, &Trace{Arrivals: []Arrival{{0, 0}, {1, 9}}}},
		"decreasing steps":      {good, &Trace{Arrivals: []Arrival{{9, 0}, {4, 0}}}},
		"negative step":         {good, &Trace{Arrivals: []Arrival{{-3, 0}}}},
	}
	for name, c := range bad {
		for _, shards := range []int{2, 3} {
			runShardedBoth(t, c.tmpls, c.tr, OpenLoopOpts{Mode: CutThrough}, shards)
		}
		_, err := SimulateOpenLoopSharded(c.tmpls, c.tr.Source(), OpenLoopOpts{Mode: CutThrough}, 2)
		if err == nil {
			t.Fatalf("%s: sharded accepted bad input", name)
		}
		if name == "decreasing steps" && !strings.Contains(err.Error(), "arrival 1:") {
			t.Errorf("decreasing-steps error does not name the offending index: %q", err)
		}
	}
}

// TestOpenLoopShardedAllocs pins slot recycling under shards: a warm
// sharded engine's steady-state allocations per injected message are
// ~0. The per-run constant (result struct, worker goroutines and their
// closures, the replay cursor) stays under 96 allocations for 4000
// messages.
func TestOpenLoopShardedAllocs(t *testing.T) {
	e := newEngine()
	tmpls := permTemplates(t, 4, 2, 23)
	const n = 4000
	tr := &Trace{}
	for i := 0; i < n; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 4, Tmpl: int32(i % len(tmpls))})
	}
	opts := OpenLoopOpts{Mode: CutThrough}
	if _, _, err := e.openLoop(tmpls, tr.Source(), opts, 3, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := e.openLoop(tmpls, tr.Source(), opts, 3, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 96 {
		t.Fatalf("warm sharded open-loop run of %d messages allocated %.0f times (%.4f/message), want ≈0/message",
			n, allocs, allocs/n)
	}
	t.Logf("warm sharded run: %.0f allocs for %d messages (%.5f per message)", allocs, n, allocs/n)
}

// TestOpenLoopShardedColdAllocs is TestOpenLoopColdAllocs for a
// three-shard run on a fresh engine: the sharded path claims and
// recycles slots through the same free stacks.
func TestOpenLoopShardedColdAllocs(t *testing.T) {
	checkColdAllocs(t, func() func([]*Message, *Trace) error {
		e := newEngine()
		return func(tmpls []*Message, tr *Trace) error {
			_, _, err := e.openLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough}, 3, false)
			return err
		}
	})
}
