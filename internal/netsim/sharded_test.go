package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// shardCounts spans the interesting partition shapes: a two-way split,
// an odd split, more shards than a small run's links (clamping), and
// the benchmarked eight-way split.
var shardCounts = []int{2, 3, 8, 64}

// shardedWorkloads returns deterministic route sets covering the
// regimes the sharded engine must reproduce bit-for-bit: heavy
// permutation contention on a hypercube, sparse hand-built routes with
// shared links, empty routes, and single messages.
func shardedWorkloads() map[string][]*Message {
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(7))
	perm := RandomPermutation(rng, q.Nodes())
	w := map[string][]*Message{
		"permutation-q5": PermutationMessages(q, perm, 3),
		"chain": {
			{Route: []int32{0, 1, 2, 3}, Flits: 5},
			{Route: []int32{3, 2, 1, 0}, Flits: 5},
			{Route: []int32{1, 2}, Flits: 2},
		},
		"shared-bottleneck": {
			{Route: []int32{0, 9, 4}, Flits: 4},
			{Route: []int32{1, 9, 5}, Flits: 4},
			{Route: []int32{2, 9, 6}, Flits: 4},
			{Route: []int32{3, 9, 7}, Flits: 4},
		},
		"empty-and-single": {
			{Route: nil, Flits: 1},
			{Route: []int32{42}, Flits: 7},
			{Route: nil, Flits: 3},
		},
	}
	return w
}

// TestSimulateShardedEquivalence: for every workload, mode, and shard
// count, the sharded result must be bit-identical to Simulate's.
func TestSimulateShardedEquivalence(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			want, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			for _, shards := range shardCounts {
				got, err := SimulateSharded(msgs, mode, shards)
				if err != nil {
					t.Fatalf("%s/%v/shards=%d: %v", name, mode, shards, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v/shards=%d: %+v != single-shard %+v",
						name, mode, shards, got, want)
				}
			}
		}
	}
}

// shardedSchedules builds the fault scenarios exercised against every
// workload: a permanent mid-run kill, a transient stall, and a
// mixed schedule over the busiest links.
func shardedSchedules(msgs []*Message) map[string]*faults.Schedule {
	use := map[int]int{}
	for _, m := range msgs {
		for _, id := range m.Route {
			use[int(id)]++
		}
	}
	ids := make([]int, 0, len(use))
	for id := range use {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if use[ids[i]] != use[ids[j]] {
			return use[ids[i]] > use[ids[j]]
		}
		return ids[i] < ids[j]
	})
	out := map[string]*faults.Schedule{"empty": faults.NewSchedule()}
	if len(ids) > 0 {
		out["perm-hot"] = faults.NewSchedule().FailLink(ids[0], 2)
		out["transient-hot"] = faults.NewSchedule().FailLinkTransient(ids[0], 1, 4)
	}
	if len(ids) > 2 {
		out["mixed"] = faults.NewSchedule().
			FailLink(ids[1], 3).
			FailLinkTransient(ids[2], 2, 6).
			FailLink(ids[0], 5)
	}
	return out
}

// TestSimulateFaultsShardedEquivalence: the sharded fault path must
// reproduce SimulateFaults bit-for-bit — Result, Outcomes, TimedOut —
// for permanent, transient, and mixed schedules at every shard count.
func TestSimulateFaultsShardedEquivalence(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for schedName, sched := range shardedSchedules(msgs) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				opts := FaultOpts{Faults: sched}
				want, err := SimulateFaults(msgs, mode, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, schedName, mode, err)
				}
				for _, shards := range shardCounts {
					got, err := SimulateFaultsSharded(msgs, mode, opts, shards)
					if err != nil {
						t.Fatalf("%s/%s/%v/shards=%d: %v", name, schedName, mode, shards, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s/%v/shards=%d: %+v != single-shard %+v",
							name, schedName, mode, shards, got, want)
					}
				}
			}
		}
	}
}

// TestShardedGracefulTimeoutEquivalence pins the StepLimit timeout
// path: both engines must mark the same messages failed at the same
// step and set TimedOut.
func TestShardedGracefulTimeoutEquivalence(t *testing.T) {
	msgs := shardedWorkloads()["shared-bottleneck"]
	opts := FaultOpts{StepLimit: 3}
	want, err := SimulateFaults(msgs, CutThrough, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.TimedOut {
		t.Fatalf("workload finished within %d steps; timeout path not exercised", opts.StepLimit)
	}
	for _, shards := range shardCounts {
		got, err := SimulateFaultsSharded(msgs, CutThrough, opts, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: %+v != %+v", shards, got, want)
		}
	}
}

// probeEvent is one recorded probe callback, keyed for canonical
// ordering: (step, phase, k1, k2) with stable order inside equal keys.
type probeEvent struct {
	step  int
	phase int // 0 moves, 1 kills, 2 deliveries, 3 step end
	k1    int
	k2    int
	kind  string
	qlen  []int
}

// traceProbe records the full event stream for comparison and checks
// StepEnd's active-link contract (activeCheck) at every step; active
// itself is not recorded, since its order may differ by shard count.
type traceProbe struct {
	activeCheck
	info   RunInfo
	infoOK bool
	events []probeEvent
}

func (p *traceProbe) BeginRun(info RunInfo) {
	p.infoOK = true
	p.info = info
	p.info.LinkExt = append([]int(nil), info.LinkExt...)
	p.begin()
}

func (p *traceProbe) StepEnd(step int, queueLen []int, active []int32) {
	p.check(step, queueLen, active)
	p.events = append(p.events, probeEvent{
		step: step, phase: 3, kind: "stepEnd",
		qlen: append([]int(nil), queueLen...),
	})
}

func (p *traceProbe) FlitMoved(step int, msg, link int32) {
	p.events = append(p.events, probeEvent{step: step, phase: 0, k1: int(link), k2: int(msg), kind: "move"})
	p.move(link)
}

func (p *traceProbe) FlitDelivered(step int, msg int32) {
	p.events = append(p.events, probeEvent{step: step, phase: 2, k1: int(msg), kind: "flit"})
}

func (p *traceProbe) FlitsDropped(step int, msg int32, flits int) {
	p.events = append(p.events, probeEvent{step: step, phase: 1, k1: int(msg), k2: flits, kind: "drop"})
}

func (p *traceProbe) MsgDone(step int, msg int32, delivered bool) {
	if delivered {
		p.events = append(p.events, probeEvent{step: step, phase: 2, k1: int(msg), k2: 1, kind: "done+"})
	} else {
		p.events = append(p.events, probeEvent{step: step, phase: 1, k1: int(msg), k2: 1 << 20, kind: "done-"})
	}
}

// canonical sorts the stream into the deterministic per-step order the
// sharded engine emits: within a step, moves by (link, msg), then the
// kill batch in stream order (it is already canonical in both
// engines), then deliveries by (msg, flit<done) pairs, then StepEnd.
func (p *traceProbe) canonical() []probeEvent {
	out := append([]probeEvent(nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.step != b.step {
			return a.step < b.step
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.phase == 1 { // keep kill order as emitted
			return false
		}
		if a.k1 != b.k1 {
			return a.k1 < b.k1
		}
		return a.k2 < b.k2
	})
	return out
}

// TestShardedProbeStreamEquivalence: an attached probe must observe an
// event stream that canonicalizes to the single-shard engine's — same
// multiset of (step, args) per phase, same kill order, same queue
// samples — on both the fault-free and fault paths.
func TestShardedProbeStreamEquivalence(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for schedName, sched := range shardedSchedules(msgs) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				ref := &traceProbe{}
				opts := FaultOpts{Faults: sched, Probe: ref}
				want, err := SimulateFaults(msgs, mode, opts)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, schedName, mode, err)
				}
				wantEv := ref.canonical()
				for _, shards := range shardCounts {
					got := &traceProbe{}
					opts.Probe = got
					res, err := SimulateFaultsSharded(msgs, mode, opts, shards)
					if err != nil {
						t.Fatalf("%s/%s/%v/shards=%d: %v", name, schedName, mode, shards, err)
					}
					if !reflect.DeepEqual(res, want) {
						t.Fatalf("%s/%s/%v/shards=%d: probed result diverged", name, schedName, mode, shards)
					}
					gotEv := got.canonical()
					if !reflect.DeepEqual(gotEv, wantEv) {
						t.Errorf("%s/%s/%v/shards=%d: probe streams differ\n got %d events\nwant %d events\n%s",
							name, schedName, mode, shards, len(gotEv), len(wantEv),
							firstStreamDiff(gotEv, wantEv))
					}
				}
			}
		}
	}
}

// sortRuns returns a one-shard probe stream in the order the kernels
// emit at two or more shards: each maximal run of moves sorted by
// (link, msg) and each maximal run of deliveries (FlitDelivered and
// delivered MsgDone) by (msg, flit before done), every other event
// left where it is. At one shard those runs follow the worklist.
func sortRuns(ev []probeEvent) []probeEvent {
	out := append([]probeEvent(nil), ev...)
	class := func(e probeEvent) int {
		switch e.kind {
		case "move":
			return 1
		case "flit", "done+":
			return 2
		}
		return 0
	}
	for i := 0; i < len(out); {
		c, j := class(out[i]), i+1
		for c != 0 && j < len(out) && class(out[j]) == c && out[j].step == out[i].step {
			j++
		}
		run := out[i:j]
		sort.Slice(run, func(a, b int) bool {
			if run[a].k1 != run[b].k1 {
				return run[a].k1 < run[b].k1
			}
			return run[a].k2 < run[b].k2
		})
		i = j
	}
	return out
}

// TestShardedProbeStreamOrder pins the closed-loop kernel's emission
// order at two or more shards, not only its per-step multisets: the
// raw stream must equal the one-shard stream with only its runs of
// moves and of deliveries sorted — moves by (link, msg), then the
// kills in kill order, deliveries by msg, StepEnd, and a timeout sweep
// after the final StepEnd.
func TestShardedProbeStreamOrder(t *testing.T) {
	for name, msgs := range shardedWorkloads() {
		for schedName, sched := range shardedSchedules(msgs) {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				for _, limit := range []int{0, 3} {
					ref := &traceProbe{}
					opts := FaultOpts{Faults: sched, StepLimit: limit, Probe: ref}
					if _, err := SimulateFaults(msgs, mode, opts); err != nil {
						t.Fatalf("%s/%s/%v/limit=%d: %v", name, schedName, mode, limit, err)
					}
					want := sortRuns(ref.events)
					for _, shards := range shardCounts {
						got := &traceProbe{}
						opts.Probe = got
						if _, err := SimulateFaultsSharded(msgs, mode, opts, shards); err != nil {
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

func firstStreamDiff(got, want []probeEvent) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("first diff at %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	return "streams are a prefix of one another"
}

// TestShardedProbedFaultFree covers SimulateShardedProbed (the
// fault-free probed entry point) against SimulateProbed.
func TestShardedProbedFaultFree(t *testing.T) {
	msgs := shardedWorkloads()["permutation-q5"]
	ref := &traceProbe{}
	want, err := SimulateProbed(msgs, CutThrough, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		got := &traceProbe{}
		res, err := SimulateShardedProbed(msgs, CutThrough, shards, got)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shards=%d: result diverged: %+v != %+v", shards, res, want)
		}
		if !reflect.DeepEqual(got.canonical(), ref.canonical()) {
			t.Errorf("shards=%d: probe streams differ: %s", shards,
				firstStreamDiff(got.canonical(), ref.canonical()))
		}
	}
}

// TestShardedStatsConservation checks the per-shard invariant on the
// fault-free path: every shard's moved flits equal its injected
// flit-hops (everything delivers), the shard link counts partition the
// link space, and the per-shard sums reproduce the global Result. The
// per-shard stats come from the kernel directly, on one Engine.
func TestShardedStatsConservation(t *testing.T) {
	msgs := shardedWorkloads()["permutation-q5"]
	want, err := Simulate(msgs, CutThrough)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine()
	for _, shards := range []int{1, 2, 3, 8} {
		res, _, stats, err := e.cl.run(msgs, CutThrough, FaultOpts{}, false, shards, true)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shards=%d: result diverged", shards)
		}
		sumMoved, sumLinks, sumBoundary := 0, 0, 0
		for k, st := range stats {
			if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
				t.Errorf("shards=%d shard %d: moved %d + dropped %d != injected %d",
					shards, k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
			}
			sumMoved += st.FlitsMoved
			sumLinks += st.Links
			sumBoundary += st.BoundaryOut
		}
		if sumMoved != res.FlitsMoved {
			t.Errorf("shards=%d: shard moved sum %d != global %d", shards, sumMoved, res.FlitsMoved)
		}
		if shards > 1 && sumBoundary == 0 {
			t.Errorf("shards=%d: no boundary traffic on a permutation workload", shards)
		}
	}
}

// simulateOn and simulateFaultsOn are Simulate and SimulateFaults on
// engine e instead of a pooled one: the closed-loop kernel at one
// shard.
func simulateOn(e *Engine, msgs []*Message, mode Mode) (*Result, error) {
	res, _, _, err := e.cl.run(msgs, mode, FaultOpts{}, false, 1, false)
	return res, err
}

func simulateFaultsOn(e *Engine, msgs []*Message, mode Mode, opts FaultOpts) (*FaultResult, error) {
	_, fr, _, err := e.cl.run(msgs, mode, opts, true, 1, false)
	return fr, err
}

// TestShardedStatsConservationWithFaults checks the generalized
// invariant moved+dropped == injected per shard under a killing
// schedule, via the internal run (the stats themselves are not part of
// the public fault API).
func TestShardedStatsConservationWithFaults(t *testing.T) {
	msgs := shardedWorkloads()["shared-bottleneck"]
	sched := faults.NewSchedule().FailLink(9, 2)
	sh := &newEngine().cl
	_, fr, stats, err := sh.run(msgs, CutThrough, FaultOpts{Faults: sched}, true, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if fr.FailedMsgs == 0 {
		t.Fatal("schedule killed nothing; invariant not exercised")
	}
	sumInj, sumMoved, sumDropped := 0, 0, 0
	for k, st := range stats {
		if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
			t.Errorf("shard %d: moved %d + dropped %d != injected %d",
				k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
		}
		sumInj += st.InjectedHops
		sumMoved += st.FlitsMoved
		sumDropped += st.DroppedFlits
	}
	wantHops := 0
	for _, m := range msgs {
		wantHops += m.Flits * len(m.Route)
	}
	if sumInj != wantHops || sumMoved != fr.FlitsMoved || sumDropped != fr.DroppedFlits {
		t.Errorf("global sums diverge: injected %d/%d moved %d/%d dropped %d/%d",
			sumInj, wantHops, sumMoved, fr.FlitsMoved, sumDropped, fr.DroppedFlits)
	}
}

// TestShardedPoolReuse runs different workloads back to back through
// the pooled sharded engine to catch stale cross-run state (rings,
// worklists, owner tables).
func TestShardedPoolReuse(t *testing.T) {
	wl := shardedWorkloads()
	order := []string{"permutation-q5", "empty-and-single", "shared-bottleneck", "permutation-q5", "chain"}
	for round := 0; round < 2; round++ {
		for _, name := range order {
			msgs := wl[name]
			want, err := Simulate(msgs, StoreAndForward)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulateSharded(msgs, StoreAndForward, 3)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: %+v != %+v", round, name, got, want)
			}
		}
	}
}

// coldSplitAllocs bounds a two-shard closed run on an Engine that has
// run only at one shard: the second shard's state, its worklists and
// batches grown once to its link count, the owner table, the rings and
// spill batches, the worker and the Result (18 allocations on Q_12).
// Doubling the shards' worklists and batches up from empty step by
// step would cost 82 or more there.
const coldSplitAllocs = 48

// TestShardedColdSplitAllocs pins what lets one Engine pool serve
// every shard count: the first run of an Engine at a new shard count
// grows each shard's worklists and batches once, in partition.split
// and (the enqueue batch) at the start of the closed kernel's run, so
// it allocates a small constant however many links the run has.
func TestShardedColdSplitAllocs(t *testing.T) {
	q := hypercube.New(12)
	rng := rand.New(rand.NewSource(5))
	msgs := PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 4)
	// As in lastRunAllocs: another goroutine can allocate mid-count,
	// which only ever adds, so the count is the least of three.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		e := newEngine()
		if _, err := simulateOn(e, msgs, CutThrough); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, _, _, err := e.cl.run(msgs, CutThrough, FaultOpts{}, false, 2, false); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	t.Logf("first two-shard run after a one-shard run: %d allocs", least)
	if least > coldSplitAllocs {
		t.Errorf("first two-shard run after a one-shard run allocated %d times, want ≤ %d", least, coldSplitAllocs)
	}
}

// TestOpenLoopLeavesEnqUngrown pins that only the closed loop sizes
// its enqueue batch (shardState.enq): one-shard open-loop runs on an
// Engine, fresh or after a small closed run, leave its capacity as
// they found it, where a split that grew it would hold one idle int32
// per link of every open-loop run.
func TestOpenLoopLeavesEnqUngrown(t *testing.T) {
	q := hypercube.New(8)
	rng := rand.New(rand.NewSource(9))
	tmpls := PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 2)
	tr := olShardTrace(len(tmpls), 2*len(tmpls), 4)
	e := newEngine()
	openRun := func() int {
		if _, _, err := e.openLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough}, 1, false); err != nil {
			t.Fatal(err)
		}
		return cap(e.part.states[0].enq)
	}
	if c := openRun(); c != 0 {
		t.Fatalf("open-loop run on a fresh Engine grew enq to capacity %d", c)
	}
	small := []*Message{{Route: []int32{0, 1, 2}, Flits: 2}, {Route: []int32{2, 1}, Flits: 1}}
	if _, err := simulateOn(e, small, CutThrough); err != nil {
		t.Fatal(err)
	}
	before := cap(e.part.states[0].enq)
	for range 2 {
		if after := openRun(); after != before {
			t.Fatalf("warm one-shard open-loop run moved enq's capacity from %d to %d", before, after)
		}
	}
}

// TestShardedErrorPaths pins the error contracts: invalid flits and
// the unbounded-schedule guard.
func TestShardedErrorPaths(t *testing.T) {
	bad := []*Message{{Route: []int32{0, 1}, Flits: 0}}
	if _, err := SimulateSharded(bad, CutThrough, 4); err == nil {
		t.Error("zero-flit message accepted")
	}
	msgs := shardedWorkloads()["chain"]
	if _, err := SimulateFaultsSharded(msgs, CutThrough, FaultOpts{Faults: &faults.PerStep{P: 0.5, Seed: 1}}, 4); err == nil {
		t.Error("unbounded schedule without StepLimit accepted")
	}
}

// Every sharded entry point rejects a negative shard count with the
// same error, and runs 0 and 1 as the single-shard path.
func TestShardedRejectsNegativeShards(t *testing.T) {
	msgs := shardedWorkloads()["chain"]
	src := func() ArrivalSource { return (&Trace{Arrivals: []Arrival{{0, 0}}}).Source() }
	entries := map[string]func(shards int) error{
		"SimulateSharded": func(k int) error {
			_, err := SimulateSharded(msgs, CutThrough, k)
			return err
		},
		"SimulateShardedProbed": func(k int) error {
			_, err := SimulateShardedProbed(msgs, CutThrough, k, &traceProbe{})
			return err
		},
		"SimulateFaultsSharded": func(k int) error {
			_, err := SimulateFaultsSharded(msgs, CutThrough, FaultOpts{}, k)
			return err
		},
		"SimulateOpenLoopSharded": func(k int) error {
			_, err := SimulateOpenLoopSharded(msgs, src(), OpenLoopOpts{}, k)
			return err
		},
		"SimulateOpenLoopShardedStats": func(k int) error {
			_, _, err := SimulateOpenLoopShardedStats(msgs, src(), OpenLoopOpts{}, k)
			return err
		},
		"SimulateBatch": func(k int) error {
			_, err := SimulateBatch([]BatchJob{{Msgs: msgs, Mode: CutThrough, Shards: k}})
			return err
		},
	}
	for name, run := range entries {
		err := run(-3)
		if err == nil || !strings.Contains(err.Error(), "negative shard count -3") {
			t.Errorf("%s(-3): err %v, want a negative shard count error", name, err)
		}
		for _, k := range []int{0, 1} {
			if err := run(k); err != nil {
				t.Errorf("%s(%d): %v", name, k, err)
			}
		}
	}
}

// TestNumberAllNoAllocs pins the shared numbering pass (satellite of
// the sharding work: Simulate, SimulateFaults, simulateWormhole, and
// the sharded engine all run through numberAll) to zero allocations on
// a warm engine.
func TestNumberAllNoAllocs(t *testing.T) {
	q := hypercube.New(4)
	rng := rand.New(rand.NewSource(3))
	msgs := PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 2)
	e := newEngine()
	if _, err := e.numberAll(msgs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.numberAll(msgs); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("numberAll allocates %v per run on a warm engine", allocs)
	}
}
