package netsim

import (
	"reflect"
	"testing"

	"multipath/internal/faults"
)

// statusOnly hides a fault oracle's optional AppendLinks method, so the
// engines ask Status about every active link at every step: the golden
// model for the fault-set skip.
type statusOnly struct{ f LinkFaults }

func (s statusOnly) Status(link, step int) (bool, bool) { return s.f.Status(link, step) }
func (s statusOnly) Horizon() int                       { return s.f.Horizon() }

// faultSetCase is one workload of TestFaultSetShardedEquivalence. pre,
// when set, is a table-numbered run made on the same engine first, so
// the case's own run finds that run's numbering stamps left behind.
type faultSetCase struct {
	name  string
	pre   []*Message
	msgs  []*Message
	sched *faults.Schedule
}

func faultSetCases() []faultSetCase {
	// The hot links of a contended hypercube permutation carry a
	// transient window and a permanent kill.
	perm := shardedWorkloads()["permutation-q5"]
	hot := shardedSchedules(perm)["mixed"]
	return []faultSetCase{
		{
			name: "negative-and-sparse-ids",
			msgs: []*Message{
				{Route: []int{-3, 5, 1 << 20}, Flits: 3},
				{Route: []int{1 << 20, -3}, Flits: 2},
				{Route: []int{7, -9, 5}, Flits: 2},
				{Route: []int{5, 7}, Flits: 4},
				{Route: []int{-9, 1 << 20, 7}, Flits: 1},
			},
			sched: faults.NewSchedule().
				FailLinkTransient(1<<20, 2, 5).
				FailLink(-9, 4).
				FailLinkTransient(5, 1, 3).
				FailLink(1<<21, 1),
		},
		{
			name: "faulty-ids-above-routes",
			msgs: []*Message{
				{Route: []int{0, 1, 2, 3}, Flits: 3},
				{Route: []int{3, 2, 1, 0}, Flits: 3},
				{Route: []int{4, 2, 6}, Flits: 2},
				{Route: []int{6, 5, 4}, Flits: 2},
			},
			sched: faults.NewSchedule().
				FailLink(2, 3).
				FailLinkTransient(6, 1, 4).
				FailLink(7, 1).
				FailLink(50, 1).
				FailLinkTransient(4096, 1, 9).
				FailLink(1<<40, 1),
		},
		{
			// The earlier run numbers 9 first (dense 0) and 4 later;
			// this run is map-numbered (negative ids) and crosses 9 at
			// another dense id, while 4 is listed but never crossed.
			name: "table-run-then-map-run",
			pre: []*Message{
				{Route: []int{9, 4, 1, 0}, Flits: 1},
				{Route: []int{12, 3}, Flits: 1},
			},
			msgs: []*Message{
				{Route: []int{-1, 3, 9}, Flits: 3},
				{Route: []int{3, 9, 12}, Flits: 2},
				{Route: []int{0, -1}, Flits: 2},
				{Route: []int{12, 0, 3}, Flits: 1},
			},
			sched: faults.NewSchedule().
				FailLink(9, 2).
				FailLink(4, 1).
				FailLinkTransient(0, 1, 3),
		},
		{name: "transient-and-permanent", msgs: perm, sched: hot},
	}
}

// faultSetTrace injects every template three times, two arrivals per
// step, so outages starting in the first steps meet queued traffic.
func faultSetTrace(ntmpl int) *Trace {
	tr := &Trace{}
	for i := 0; i < 3*ntmpl; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 2, Tmpl: int32(i % ntmpl)})
	}
	return tr
}

// olOutcome is everything an open-loop run reports: the result, the
// per-message records, and the listener and probe event streams.
type olOutcome struct {
	Res    *OpenLoopResult
	Msgs   map[int32]msgRec
	Lis    []lisEvent
	Events []probeEvent
}

// TestFaultSetShardedEquivalence pins the engines' fault-set skip —
// Status asked only about links a listing oracle names — to the same
// runs behind a Status-only wrapper, through every fault kernel:
// SimulateFaults and SimulateOpenLoop and their 2- and 3-shard forms.
// The cases cover the map-numbered path (negative and sparse ids),
// listed ids above the run's id table, a map-numbered run on an engine
// holding a table-numbered run's stamps, and transient windows next to
// permanent kills. Results, outcomes, listener and probe streams must
// agree exactly.
func TestFaultSetShardedEquivalence(t *testing.T) {
	preRun := func(t *testing.T, e *Engine, pre []*Message) {
		t.Helper()
		if pre == nil {
			return
		}
		var err error
		if e != nil {
			_, err = e.SimulateFaults(pre, CutThrough, FaultOpts{})
		} else {
			_, err = SimulateFaults(pre, CutThrough, FaultOpts{})
		}
		if err != nil {
			t.Fatalf("earlier run: %v", err)
		}
	}
	for _, c := range faultSetCases() {
		for _, shards := range []int{1, 2, 3} {
			for _, mode := range []Mode{StoreAndForward, CutThrough} {
				for _, o := range []FaultOpts{{}, {StepLimit: 9, StepOffset: 2}} {
					run := func(f LinkFaults) (*FaultResult, []probeEvent) {
						p := &traceProbe{}
						o.Faults, o.Probe = f, p
						var fr *FaultResult
						var err error
						if shards == 1 {
							e := NewEngine()
							preRun(t, e, c.pre)
							fr, err = e.SimulateFaults(c.msgs, mode, o)
						} else {
							preRun(t, nil, c.pre)
							fr, err = SimulateFaultsSharded(c.msgs, mode, o, shards)
						}
						if err != nil {
							t.Fatalf("%s/closed/shards=%d/%v: %v", c.name, shards, mode, err)
						}
						return fr, p.events
					}
					got, gotEv := run(c.sched)
					want, wantEv := run(statusOnly{c.sched})
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEv, wantEv) {
						t.Fatalf("%s/closed/shards=%d/%v/limit=%d: fault-set run diverged from Status-only\n got %+v\nwant %+v",
							c.name, shards, mode, o.StepLimit, got, want)
					}
				}
				for _, limit := range []int{0, 14} {
					run := func(f LinkFaults) olOutcome {
						out := olOutcome{Msgs: map[int32]msgRec{}}
						lis, p := &recListener{}, &traceProbe{}
						o := OpenLoopOpts{Mode: mode, Faults: f, StepLimit: limit,
							PerMessage: recordPerMsg(out.Msgs), Listener: lis, Probe: p}
						src := faultSetTrace(len(c.msgs)).Source()
						var err error
						if shards == 1 {
							e := NewEngine()
							preRun(t, e, c.pre)
							out.Res, err = e.SimulateOpenLoop(c.msgs, src, o)
						} else {
							preRun(t, nil, c.pre)
							out.Res, err = SimulateOpenLoopSharded(c.msgs, src, o, shards)
						}
						if err != nil {
							t.Fatalf("%s/open/shards=%d/%v: %v", c.name, shards, mode, err)
						}
						out.Lis, out.Events = lis.ev, p.events
						return out
					}
					got, want := run(c.sched), run(statusOnly{c.sched})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/open/shards=%d/%v/limit=%d: fault-set run diverged from Status-only\n got %+v\nwant %+v",
							c.name, shards, mode, limit, got.Res, want.Res)
					}
					if shards == 1 && len(got.Lis) == 0 {
						t.Fatalf("%s/open/%v/limit=%d: no link died; the case tests no kill", c.name, mode, limit)
					}
				}
			}
		}
	}
}
