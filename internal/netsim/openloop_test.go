package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// msgRec is one PerMessage callback record.
type msgRec struct {
	arr, done int
	delivered bool
}

func recordPerMsg(m map[int32]msgRec) func(int32, int, int, bool) {
	return func(msg int32, arr, done int, delivered bool) {
		m[msg] = msgRec{arr, done, delivered}
	}
}

// sliceSink collects sink observations for multiset comparison.
type sliceSink struct{ vals []int }

func (s *sliceSink) Observe(v int) { s.vals = append(s.vals, v) }

// doneProbe records each message's MsgDone step.
type doneProbe struct{ done map[int32]int }

func (p *doneProbe) BeginRun(RunInfo)                    {}
func (p *doneProbe) StepEnd(int, []int)                  {}
func (p *doneProbe) FlitMoved(int, int32, int32)         {}
func (p *doneProbe) FlitDelivered(int, int32)            {}
func (p *doneProbe) FlitsDropped(int, int32, int)        {}
func (p *doneProbe) MsgDone(step int, msg int32, _ bool) { p.done[msg] = step }

// runBoth runs the naive reference and the engine on the same trace
// and asserts bit-identity: same OpenLoopResult (SkippedSteps aside —
// the reference never skips), same per-message records, same latency
// multiset. Returns the engine's result and records.
func runBoth(t *testing.T, tmpls []*Message, tr *Trace, opts OpenLoopOpts) (*OpenLoopResult, map[int32]msgRec) {
	t.Helper()
	refRec := map[int32]msgRec{}
	refSink := &sliceSink{}
	refOpts := opts
	refOpts.PerMessage = recordPerMsg(refRec)
	refOpts.Sink = refSink
	ref, refErr := SimulateOpenLoopReference(tmpls, tr.Source(), refOpts)

	optRec := map[int32]msgRec{}
	optSink := &sliceSink{}
	optOpts := opts
	optOpts.PerMessage = recordPerMsg(optRec)
	optOpts.Sink = optSink
	opt, optErr := SimulateOpenLoop(tmpls, tr.Source(), optOpts)

	if (refErr == nil) != (optErr == nil) {
		t.Fatalf("error mismatch: reference %v, engine %v", refErr, optErr)
	}
	if refErr != nil {
		if refErr.Error() != optErr.Error() {
			t.Fatalf("error text mismatch: reference %q, engine %q", refErr, optErr)
		}
		return nil, nil
	}
	cmp := *opt
	cmp.SkippedSteps = 0
	if !reflect.DeepEqual(&cmp, ref) {
		t.Fatalf("result diverged:\nengine    %+v\nreference %+v", cmp, *ref)
	}
	if !reflect.DeepEqual(optRec, refRec) {
		t.Fatalf("per-message records diverged:\nengine    %v\nreference %v", optRec, refRec)
	}
	slices.Sort(refSink.vals)
	slices.Sort(optSink.vals)
	if !reflect.DeepEqual(optSink.vals, refSink.vals) {
		t.Fatalf("latency sinks diverged:\nengine    %v\nreference %v", optSink.vals, refSink.vals)
	}
	// Determinism of the engine itself.
	rerunRec := map[int32]msgRec{}
	optOpts.PerMessage = recordPerMsg(rerunRec)
	optOpts.Sink = &sliceSink{}
	rerun, err := SimulateOpenLoop(tmpls, tr.Source(), optOpts)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(rerun, opt) || !reflect.DeepEqual(rerunRec, optRec) {
		t.Fatalf("engine nondeterministic: %+v vs %+v", rerun, opt)
	}
	return opt, optRec
}

func permTemplates(t *testing.T, n, flits int, seed int64) []*Message {
	t.Helper()
	q := hypercube.New(n)
	rng := rand.New(rand.NewSource(seed))
	return PermutationMessages(q, RandomPermutation(rng, q.Nodes()), flits)
}

// allAtZero builds the trace that injects template i as message i at
// step 0 — the degenerate trace the closed-loop engine must match.
func allAtZero(tmpls []*Message) *Trace {
	tr := &Trace{}
	for i := range tmpls {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: 0, Tmpl: int32(i)})
	}
	return tr
}

// TestOpenLoopAllAtZeroMatchesSimulate pins the correctness anchor: a
// trace whose arrivals all say step 0 reproduces the step-driven
// Simulate bit-identically — Result counters and every per-message
// completion step.
func TestOpenLoopAllAtZeroMatchesSimulate(t *testing.T) {
	sets := map[string][]*Message{
		"perm-q5": permTemplates(t, 5, 3, 7),
		"hand": {
			{Route: []int32{0, 1, 2}, Flits: 2},
			{Route: []int32{}, Flits: 1}, // empty route: delivered at step 0
			{Route: []int32{1, 1, 0}, Flits: 3},
			{Route: []int32{2, 0}, Flits: 1},
			{Route: []int32{0, 1, 2}, Flits: 2},
		},
	}
	for name, tmpls := range sets {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			closed, err := SimulateProbed(tmpls, mode, &doneProbe{done: map[int32]int{}})
			if err != nil {
				t.Fatalf("%s/%v: closed: %v", name, mode, err)
			}
			probe := &doneProbe{done: map[int32]int{}}
			closed, err = SimulateProbed(tmpls, mode, probe)
			if err != nil {
				t.Fatalf("%s/%v: closed: %v", name, mode, err)
			}
			opt, rec := runBoth(t, tmpls, allAtZero(tmpls), OpenLoopOpts{Mode: mode})
			if opt.Result != *closed {
				t.Fatalf("%s/%v: open-loop %+v != Simulate %+v", name, mode, opt.Result, *closed)
			}
			if opt.Injected != len(tmpls) || opt.InjectedHops == 0 && name == "perm-q5" {
				t.Fatalf("%s/%v: injected %d of %d", name, mode, opt.Injected, len(tmpls))
			}
			for msg, doneStep := range probe.done {
				r, ok := rec[msg]
				if !ok || !r.delivered || r.arr != 0 || r.done != doneStep {
					t.Fatalf("%s/%v: msg %d: open-loop %+v, Simulate done at %d", name, mode, msg, r, doneStep)
				}
			}
			if len(probe.done) != len(rec) {
				t.Fatalf("%s/%v: %d closed completions vs %d open-loop", name, mode, len(probe.done), len(rec))
			}
		}
	}
}

// TestOpenLoopMatchesReference drives staggered arrival traces with
// contention, same-step bursts, and long quiescent gaps through both
// models.
func TestOpenLoopMatchesReference(t *testing.T) {
	tmpls := permTemplates(t, 4, 3, 11)
	rng := rand.New(rand.NewSource(13))
	tr := &Trace{}
	step := 0
	for i := 0; i < 120; i++ {
		if i%17 == 0 {
			step += 40 + rng.Intn(100) // quiescent gap: exercises the leap
		} else if rng.Intn(3) > 0 {
			step += rng.Intn(3)
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: step, Tmpl: int32(rng.Intn(len(tmpls)))})
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode})
		if opt.Injected != len(tr.Arrivals) {
			t.Fatalf("%v: injected %d of %d", mode, opt.Injected, len(tr.Arrivals))
		}
		if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
			t.Fatalf("%v: conservation: moved %d + dropped %d != injected %d",
				mode, opt.FlitsMoved, opt.DroppedFlits, opt.InjectedHops)
		}
		if opt.SkippedSteps == 0 {
			t.Fatalf("%v: trace has long gaps but no steps were skipped", mode)
		}
		if len(rec) != opt.Injected {
			t.Fatalf("%v: %d records for %d injected", mode, len(rec), opt.Injected)
		}
	}
}

// TestOpenLoopLeapArithmetic pins the leap clock exactly: three
// uncontended 3-hop transfers at steps 0/1000/2000 with 2 flits
// cut-through each take hops+flits-1 = 4 steps, so the run spans 2004
// model steps of which 2·996 are leapt over.
func TestOpenLoopLeapArithmetic(t *testing.T) {
	tmpls := []*Message{{Route: []int32{0, 1, 2}, Flits: 2}}
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {1000, 0}, {2000, 0}}}
	opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: CutThrough})
	if opt.Steps != 2004 {
		t.Fatalf("Steps = %d, want 2004", opt.Steps)
	}
	if opt.SkippedSteps != 2*996 {
		t.Fatalf("SkippedSteps = %d, want %d", opt.SkippedSteps, 2*996)
	}
	if opt.MaxInFlight != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", opt.MaxInFlight)
	}
	for msg, r := range rec {
		if !r.delivered || r.done-r.arr != 4 {
			t.Fatalf("msg %d: %+v, want latency 4", msg, r)
		}
	}
}

// TestOpenLoopFaults drives a permanent kill plus a transient delay
// through both models and checks the generalized conservation
// invariant.
func TestOpenLoopFaults(t *testing.T) {
	tmpls := permTemplates(t, 3, 2, 3)
	var usedLink int
	for _, m := range tmpls {
		if len(m.Route) > 0 {
			usedLink = int(m.Route[0])
			break
		}
	}
	tr := &Trace{}
	for i := 0; i < 40; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 3, Tmpl: int32(i % len(tmpls))})
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		sched := faults.NewSchedule()
		sched.FailLink(usedLink, 3)
		sched.FailLinkTransient(usedLink+1, 2, 6)
		opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode, Faults: sched})
		if opt.FailedMsgs == 0 {
			t.Fatalf("%v: permanent fault on used link %d failed nothing", mode, usedLink)
		}
		if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
			t.Fatalf("%v: conservation: moved %d + dropped %d != injected %d",
				mode, opt.FlitsMoved, opt.DroppedFlits, opt.InjectedHops)
		}
		if opt.DeliveredMsgs+opt.FailedMsgs != opt.Injected {
			t.Fatalf("%v: delivered %d + failed %d != injected %d",
				mode, opt.DeliveredMsgs, opt.FailedMsgs, opt.Injected)
		}
		failed := 0
		for _, r := range rec {
			if !r.delivered {
				failed++
			}
		}
		if failed != opt.FailedMsgs {
			t.Fatalf("%v: records say %d failed, result %d", mode, failed, opt.FailedMsgs)
		}
	}
}

// TestOpenLoopGracefulTimeout blocks the only route with a transient
// outage longer than StepLimit: in-flight messages fail at the limit
// and the arrival beyond the limit is never injected.
func TestOpenLoopGracefulTimeout(t *testing.T) {
	tmpls := []*Message{{Route: []int32{5, 6}, Flits: 2}}
	sched := faults.NewSchedule()
	sched.FailLinkTransient(5, 1, 5000)
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {1, 0}, {2, 0}, {100, 0}}}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		opt, rec := runBoth(t, tmpls, tr, OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: 20})
		if !opt.TimedOut || opt.Steps != 20 {
			t.Fatalf("%v: TimedOut=%v Steps=%d, want timeout at 20", mode, opt.TimedOut, opt.Steps)
		}
		if opt.Injected != 3 {
			t.Fatalf("%v: injected %d, want 3 (arrival at step 100 is beyond the limit)", mode, opt.Injected)
		}
		if opt.FailedMsgs != 3 {
			t.Fatalf("%v: failed %d, want 3", mode, opt.FailedMsgs)
		}
		for msg, r := range rec {
			if r.delivered || r.done != 20 {
				t.Fatalf("%v: msg %d: %+v, want failed at 20", mode, msg, r)
			}
		}
		if opt.FlitsMoved+opt.DroppedFlits != opt.InjectedHops {
			t.Fatalf("%v: conservation violated on timeout", mode)
		}
	}
}

// TestOpenLoopRecycling checks the slot arena is bounded by the
// in-flight window, not the injected total: 200 sequential transfers
// reuse one slot.
func TestOpenLoopRecycling(t *testing.T) {
	e := NewEngine()
	tmpls := []*Message{{Route: []int32{0, 1, 2}, Flits: 2}}
	tr := &Trace{}
	for i := 0; i < 200; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i * 10, Tmpl: 0})
	}
	opt, _, err := e.openLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Injected != 200 || opt.DeliveredMsgs != 200 {
		t.Fatalf("injected %d delivered %d, want 200/200", opt.Injected, opt.DeliveredMsgs)
	}
	if opt.MaxInFlight != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", opt.MaxInFlight)
	}
	if got := len(e.olSlotTmpl); got != 1 {
		t.Fatalf("arena holds %d slots after 200 sequential messages, want 1", got)
	}

	// Overlapping arrivals must each get their own slot.
	burst := &Trace{}
	for i := 0; i < 50; i++ {
		burst.Arrivals = append(burst.Arrivals, Arrival{Step: 0, Tmpl: 0})
	}
	opt, _, err = e.openLoop(tmpls, burst.Source(), OpenLoopOpts{Mode: CutThrough}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if opt.MaxInFlight != 50 {
		t.Fatalf("burst MaxInFlight = %d, want 50", opt.MaxInFlight)
	}
	if got := len(e.olSlotTmpl); got != 50 {
		t.Fatalf("arena holds %d slots after a 50-message burst, want 50", got)
	}
}

// TestOpenLoopPooledReuse runs different workloads back to back through
// the pooled entry point; stale arena state from a previous run must
// not leak.
func TestOpenLoopPooledReuse(t *testing.T) {
	a := permTemplates(t, 4, 2, 5)
	b := []*Message{{Route: []int32{9, 8, 7, 6}, Flits: 4}, {Route: nil, Flits: 1}}
	trA, trB := allAtZero(a), &Trace{Arrivals: []Arrival{{0, 0}, {3, 1}, {3, 0}}}
	first, err := SimulateOpenLoop(a, trA.Source(), OpenLoopOpts{Mode: CutThrough})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := SimulateOpenLoop(b, trB.Source(), OpenLoopOpts{Mode: StoreAndForward}); err != nil {
			t.Fatal(err)
		}
		again, err := SimulateOpenLoop(a, trA.Source(), OpenLoopOpts{Mode: CutThrough})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("iteration %d: pooled rerun diverged: %+v vs %+v", i, again, first)
		}
	}
}

// TestOpenLoopProbeNeverChangesResult attaches a probe and asserts the
// result is bit-identical to the probe-less run, and that MsgDone steps
// agree with PerMessage.
func TestOpenLoopProbeNeverChangesResult(t *testing.T) {
	tmpls := permTemplates(t, 4, 3, 17)
	tr := &Trace{}
	for i := 0; i < 60; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 2, Tmpl: int32(i % len(tmpls))})
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		bare, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		probe := &doneProbe{done: map[int32]int{}}
		rec := map[int32]msgRec{}
		probed, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{
			Mode: mode, Probe: probe, PerMessage: recordPerMsg(rec),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(probed, bare) {
			t.Fatalf("%v: probe changed the result: %+v vs %+v", mode, probed, bare)
		}
		if len(probe.done) != len(rec) {
			t.Fatalf("%v: probe saw %d completions, PerMessage %d", mode, len(probe.done), len(rec))
		}
		for msg, doneStep := range probe.done {
			if rec[msg].done != doneStep {
				t.Fatalf("%v: msg %d: MsgDone %d vs PerMessage %d", mode, msg, doneStep, rec[msg].done)
			}
		}
	}
}

// TestOpenLoopMeasureAfter checks the warm-up cutoff: only messages
// arriving at or after MeasureAfter feed the sink.
func TestOpenLoopMeasureAfter(t *testing.T) {
	tmpls := []*Message{{Route: []int32{0, 1}, Flits: 1}}
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {5, 0}, {10, 0}, {15, 0}}}
	sink := &sliceSink{}
	opt, err := SimulateOpenLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough, MeasureAfter: 10, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if opt.DeliveredMsgs != 4 {
		t.Fatalf("delivered %d, want 4", opt.DeliveredMsgs)
	}
	if len(sink.vals) != 2 {
		t.Fatalf("sink saw %d latencies, want 2 (arrivals at 10 and 15)", len(sink.vals))
	}
}

type unboundedFaults struct{}

func (unboundedFaults) Status(link, step int) (bool, bool) { return false, false }
func (unboundedFaults) Horizon() int                       { return -1 }

// TestOpenLoopErrors covers input validation on both models.
func TestOpenLoopErrors(t *testing.T) {
	good := []*Message{{Route: []int32{0, 1}, Flits: 1}}
	cases := map[string]struct {
		tmpls []*Message
		tr    *Trace
		opts  OpenLoopOpts
	}{
		"zero flits": {
			tmpls: []*Message{{Route: []int32{0}, Flits: 0}},
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
		},
		"template out of range": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 7}}},
		},
		"negative template": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, -1}}},
		},
		"negative step": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{-3, 0}}},
		},
		"decreasing steps": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{9, 0}, {4, 0}}},
		},
		"unbounded horizon without limit": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
			opts:  OpenLoopOpts{Faults: unboundedFaults{}},
		},
		"negative StepLimit": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
			opts:  OpenLoopOpts{StepLimit: -1},
		},
		"negative MeasureAfter": {
			tmpls: good,
			tr:    &Trace{Arrivals: []Arrival{{0, 0}}},
			opts:  OpenLoopOpts{MeasureAfter: -10},
		},
	}
	for name, c := range cases {
		if _, err := SimulateOpenLoop(c.tmpls, c.tr.Source(), c.opts); err == nil {
			t.Errorf("%s: engine accepted bad input", name)
		}
		if _, err := SimulateOpenLoopReference(c.tmpls, c.tr.Source(), c.opts); err == nil {
			t.Errorf("%s: reference accepted bad input", name)
		}
	}
	// Unbounded horizon is fine with an explicit StepLimit.
	if _, err := SimulateOpenLoop(good, (&Trace{Arrivals: []Arrival{{0, 0}}}).Source(),
		OpenLoopOpts{Faults: unboundedFaults{}, StepLimit: 50}); err != nil {
		t.Errorf("unbounded horizon with StepLimit: %v", err)
	}
}

// TestOpenLoopEmptyInputs: no arrivals is a valid (empty) run.
func TestOpenLoopEmptyInputs(t *testing.T) {
	opt, rec := runBoth(t, permTemplates(t, 3, 1, 1), &Trace{}, OpenLoopOpts{Mode: CutThrough})
	if opt.Steps != 0 || opt.Injected != 0 || len(rec) != 0 {
		t.Fatalf("empty trace: %+v", opt)
	}
	// No templates at all is fine as long as no arrival names one.
	if _, err := SimulateOpenLoop(nil, (&Trace{}).Source(), OpenLoopOpts{}); err != nil {
		t.Fatalf("nil templates, empty trace: %v", err)
	}
}

// TestRecordArrivals covers the bounded-recording guard and replay.
func TestRecordArrivals(t *testing.T) {
	tr := &Trace{Arrivals: []Arrival{{0, 0}, {2, 1}, {2, 0}}}
	got, err := RecordArrivals(tr.Source(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip: %+v vs %+v", got, tr)
	}
	if _, err := RecordArrivals(tr.Source(), 2); err == nil {
		t.Fatal("max=2 accepted a 3-arrival source")
	}
}

// TestOpenLoopAllocs pins the slot-recycling claim: a warm engine's
// steady-state allocations per injected message are ~0. The run
// injects 4000 messages; the per-run constant (result struct, a few
// escaping closures, the replay cursor) stays under 64 allocations.
func TestOpenLoopAllocs(t *testing.T) {
	e := NewEngine()
	tmpls := permTemplates(t, 4, 2, 23)
	const n = 4000
	tr := &Trace{}
	for i := 0; i < n; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 4, Tmpl: int32(i % len(tmpls))})
	}
	opts := OpenLoopOpts{Mode: CutThrough}
	if _, _, err := e.openLoop(tmpls, tr.Source(), opts, 1, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := e.openLoop(tmpls, tr.Source(), opts, 1, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("warm open-loop run of %d messages allocated %.0f times (%.4f/message), want ≈0/message",
			n, allocs, allocs/n)
	}
	t.Logf("warm run: %.0f allocs for %d messages (%.5f per message)", allocs, n, allocs/n)
}

// coldWorkload is n three-hop templates, consecutive pairs sharing
// their middle link, and a trace that injects each template twice, n/16
// steps apart — long enough for the first message to deliver, so the
// second reuses its slot and the arena ends at one slot per template.
func coldWorkload(n int) ([]*Message, *Trace) {
	tmpls := make([]*Message, n)
	for i := range tmpls {
		tmpls[i] = &Message{Route: []int32{int32(i), int32(n + i/2), int32(2*n + i)}, Flits: 2}
	}
	tr := &Trace{}
	for i := 0; i < 2*n; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 16, Tmpl: int32(i % n)})
	}
	return tmpls, tr
}

// coldGrowthAllocs bounds how many more allocations a fresh engine's
// first run over 4096 templates may make than its first run over 256:
// the arena's fourteen arrays each grow a few more times by append
// (about 100 allocations in all), where a free list per template would
// add one allocation per template used (about 3,900).
const coldGrowthAllocs = 128

// lastRunAllocs counts the allocations of the last of a sequence of
// open-loop runs, over coldWorkload(n) for each n in sizes, made by one
// runner fresh from newRunner. Like testing.AllocsPerRun it holds
// GOMAXPROCS at 1; another goroutine can still allocate mid-count now
// and then, which only ever adds, so the count is the least of three
// sequences.
func lastRunAllocs(t *testing.T, newRunner func() func([]*Message, *Trace) error, sizes ...int) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		run := newRunner()
		var ms runtime.MemStats
		var before uint64
		for _, n := range sizes {
			tmpls, tr := coldWorkload(n)
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
			if err := run(tmpls, tr); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	return least
}

// checkColdAllocs pins what a warm-engine allocation test cannot see:
// allocations that grow with the template count. A fresh engine's
// first run pays for its buffers, but the slot arena's free stacks are
// intrusive arrays, so 16x the templates costs only more growth steps
// of the arena arrays, not a free list per template used. And a run
// over many templates right after one over few finds every buffer
// still grown: it allocates only the warm per-run constant.
func checkColdAllocs(t *testing.T, newRunner func() func([]*Message, *Trace) error) {
	t.Helper()
	small := lastRunAllocs(t, newRunner, 256)
	big := lastRunAllocs(t, newRunner, 4096)
	t.Logf("fresh engine, first run: %d allocs over 256 templates, %d over 4096", small, big)
	if big > small+coldGrowthAllocs {
		t.Errorf("first run over 4096 templates allocated %d times, over 256 %d: more than %d apart",
			big, small, coldGrowthAllocs)
	}
	warm := lastRunAllocs(t, newRunner, 4096, 4096)
	again := lastRunAllocs(t, newRunner, 4096, 64, 4096)
	t.Logf("4096-template run: %d allocs after another, %d after a 64-template run", warm, again)
	if again > warm {
		t.Errorf("4096-template run after a 64-template run allocated %d times, after another 4096 %d", again, warm)
	}
}

func TestOpenLoopColdAllocs(t *testing.T) {
	checkColdAllocs(t, func() func([]*Message, *Trace) error {
		e := NewEngine()
		return func(tmpls []*Message, tr *Trace) error {
			_, _, err := e.openLoop(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough}, 1, false)
			return err
		}
	})
}

// TestOpenLoopRecycledSlotOrder pins the enqueue tie-break where slot
// recycling inverts position order: message 2 reuses the slot message
// 0 freed (positions 0–1) while message 1, injected just before it,
// took a fresh slot (positions 2–3). Both reach the shared link B in
// the same step, so a sort by raw position would queue message 2 ahead
// of message 1; the (message id, hop) order queues message 1 first.
// Template 2 crosses B twice, and messages 4 and 5 invert again on
// recycled slots: message 4 requests B at position 5, message 5 at
// position 1. Results and the PerMessage stream must equal the
// reference model at 1 and 3 shards.
func TestOpenLoopRecycledSlotOrder(t *testing.T) {
	const A, B, C, D, E = 10, 20, 30, 40, 50
	tmpls := []*Message{
		{Route: []int32{A, B}, Flits: 1},
		{Route: []int32{C, B}, Flits: 1},
		{Route: []int32{D, B, E, B}, Flits: 2},
	}
	tr := &Trace{Arrivals: []Arrival{
		{Step: 0, Tmpl: 1},  // message 0: delivered at step 2, frees its slot
		{Step: 3, Tmpl: 0},  // message 1: a fresh slot
		{Step: 3, Tmpl: 1},  // message 2: message 0's slot
		{Step: 3, Tmpl: 2},  // message 3: a fresh slot, delivered at step 10
		{Step: 11, Tmpl: 2}, // message 4: message 3's slot
		{Step: 11, Tmpl: 1}, // message 5: message 2's slot
	}}
	type perMsg struct {
		msg           int32
		arrival, done int
		delivered     bool
	}
	run := func(shards int, sim func(OpenLoopOpts) (*OpenLoopResult, error)) (*OpenLoopResult, []perMsg) {
		var stream []perMsg
		res, err := sim(OpenLoopOpts{Mode: CutThrough, PerMessage: func(msg int32, arrival, done int, delivered bool) {
			stream = append(stream, perMsg{msg, arrival, done, delivered})
		}})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// Within one step the engines report completions in different
		// (each deterministic) orders; the stream's content is the pin.
		slices.SortFunc(stream, func(a, b perMsg) int {
			if a.done != b.done {
				return a.done - b.done
			}
			return int(a.msg - b.msg)
		})
		res.SkippedSteps = 0 // the reference never leaps
		return res, stream
	}
	want, wantStream := run(0, func(o OpenLoopOpts) (*OpenLoopResult, error) {
		return SimulateOpenLoopReference(tmpls, tr.Source(), o)
	})
	if got := wantStream[1:3]; got[0].msg != 1 || got[0].done != 5 || got[1].msg != 2 || got[1].done != 6 {
		t.Fatalf("reference: messages 1 and 2 complete as %+v, want message 1 at step 5, then message 2 at 6", got)
	}
	if got := wantStream[3]; got.msg != 3 || got.done != 10 {
		t.Fatalf("reference: message 3 completes as %+v, want step 10 (before message 4 reuses its slot)", got)
	}
	for _, shards := range []int{1, 3} {
		got, stream := run(shards, func(o OpenLoopOpts) (*OpenLoopResult, error) {
			return SimulateOpenLoopSharded(tmpls, tr.Source(), o, shards)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: result %+v, reference %+v", shards, *got, *want)
		}
		if !reflect.DeepEqual(stream, wantStream) {
			t.Errorf("shards=%d: PerMessage stream\n%+v\nreference\n%+v", shards, stream, wantStream)
		}
	}
}
