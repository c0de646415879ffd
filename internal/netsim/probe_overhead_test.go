package netsim

import (
	"math/rand"
	"testing"

	"multipath/internal/faults"
)

// overheadWorkload is a congested synthetic batch: 192 messages of 6
// flits on 10 random hops over 48 links.
func overheadWorkload() []*Message {
	rng := rand.New(rand.NewSource(7))
	msgs := make([]*Message, 192)
	for i := range msgs {
		route := make([]int32, 10)
		for h := range route {
			route[h] = int32(rng.Intn(48))
		}
		msgs[i] = &Message{Route: route, Flits: 6}
	}
	return msgs
}

// nopProbe is a probe that records nothing.
type nopProbe struct{}

func (nopProbe) BeginRun(RunInfo)             {}
func (nopProbe) StepEnd(int, []int, []int32)  {}
func (nopProbe) FlitMoved(int, int32, int32)  {}
func (nopProbe) FlitDelivered(int, int32)     {}
func (nopProbe) FlitsDropped(int, int32, int) {}
func (nopProbe) MsgDone(int, int32, bool)     {}

// On a warm pool, a probe-less Simulate performs exactly one
// allocation: the Result. SimulateWormhole likewise allocates only its
// WormholeResult. SimulateFaults allocates only its FaultResult and
// Outcomes, and SimulateProbed its Result, probe or not: the one-shard
// kernel they run allocates no ring, runner or method value per call.
// A warm open-loop run allocates its OpenLoopResult and the trace's
// replay cursor, plus at three shards one closure per worker
// goroutine (the WaitGroup and barrier live in the pooled Engine).
func TestSimulateAllocs(t *testing.T) {
	msgs := overheadWorkload()
	if _, err := Simulate(msgs, CutThrough); err != nil { // warm the pool
		t.Fatal(err)
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		n := testing.AllocsPerRun(10, func() {
			if _, err := Simulate(msgs, mode); err != nil {
				t.Error(err)
			}
		})
		if n > 1 {
			t.Errorf("%v: %v allocs/run, want ≤ 1", mode, n)
		}
	}
	e := newEngine()
	// Wormhole needs an acyclic channel order; ascending link ids (the
	// dimension-ordered discipline) cannot deadlock.
	whMsgs := make([]*Message, 64)
	for i := range whMsgs {
		l := int32(i % 8)
		whMsgs[i] = &Message{Route: []int32{l, 8 + l, 16 + l}, Flits: 4}
	}
	if _, err := e.simulateWormhole(whMsgs, nil); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := e.simulateWormhole(whMsgs, nil); err != nil {
			t.Error(err)
		}
	})
	if n > 1 {
		t.Errorf("wormhole: %v allocs/run, want ≤ 1", n)
	}

	sched := faults.NewSchedule().FailLink(int(msgs[0].Route[2]), 4).
		FailLinkTransient(int(msgs[1].Route[0]), 1, 6)
	for _, p := range []Probe{nil, nopProbe{}} {
		opts := FaultOpts{Faults: sched, Probe: p}
		fr, err := SimulateFaults(msgs, CutThrough, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fr.FailedMsgs == 0 {
			t.Fatal("schedule killed nothing; the kill path is not measured")
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := SimulateFaults(msgs, CutThrough, opts); err != nil {
				t.Error(err)
			}
		})
		if n > 2 {
			t.Errorf("SimulateFaults (probe %T): %v allocs/run, want ≤ 2", p, n)
		}
	}
	n = testing.AllocsPerRun(10, func() {
		if _, err := SimulateProbed(msgs, CutThrough, nopProbe{}); err != nil {
			t.Error(err)
		}
	})
	if n > 1 {
		t.Errorf("SimulateProbed: %v allocs/run, want ≤ 1", n)
	}

	tr := &Trace{Arrivals: make([]Arrival, len(msgs))}
	for i := range msgs {
		tr.Arrivals[i] = Arrival{Step: 0, Tmpl: int32(i)}
	}
	for _, c := range []struct{ shards, want int }{{1, 2}, {3, 4}} {
		run := func() {
			if _, err := SimulateOpenLoopSharded(msgs, tr.Source(), OpenLoopOpts{Mode: CutThrough}, c.shards); err != nil {
				t.Error(err)
			}
		}
		run() // warm the pooled engine at this shard count
		if n := testing.AllocsPerRun(10, run); n > float64(c.want) {
			t.Errorf("SimulateOpenLoopSharded at %d shards: %v allocs/run, want ≤ %d", c.shards, n, c.want)
		}
	}
}
