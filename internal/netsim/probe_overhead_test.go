package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"multipath/internal/faults"
)

// simulateBaseline is a verbatim copy of Engine.Simulate as it stood
// before the probe hooks were added — the reference the overhead
// contract is stated against. Simulate has no probe call site (probed
// runs take the closed-loop kernel), so the two are the same loop. If
// Simulate's hot loop changes, this copy must be updated to match
// (TestProbeOffEquivalentToBaseline catches semantic drift).
func (e *Engine) simulateBaseline(msgs []*Message, mode Mode) (*Result, error) {
	total, maxRoute, totalFlits := 0, 0, 0
	minID, maxID := 0, -1
	seen := false
	for i, m := range msgs {
		if m.Flits < 1 {
			return nil, fmt.Errorf("netsim: message %d has %d flits", i, m.Flits)
		}
		totalFlits += m.Flits
		if len(m.Route) > maxRoute {
			maxRoute = len(m.Route)
		}
		for _, id32 := range m.Route {
			id := int(id32)
			if !seen || id < minID {
				minID = id
			}
			if !seen || id > maxID {
				maxID = id
			}
			seen = true
		}
		total += len(m.Route)
	}

	links := e.number(msgs, total, minID, maxID)
	e.growState(len(msgs), total, int(links))

	res := &Result{}
	e.res = res
	remaining := 0
	for i, m := range msgs {
		e.flits[i] = m.Flits
		p0, p1 := e.off[i], e.off[i+1]
		if p0 == p1 {
			continue
		}
		e.arrived[p0] = m.Flits
		remaining++
		e.enqueue(p0)
	}

	limit := stepLimit(totalFlits, maxRoute, len(msgs))
	step := 0
	for remaining > 0 {
		step++
		if step > limit {
			return nil, fmt.Errorf("netsim: no progress after %d steps", limit)
		}
		cur := e.work
		e.work = e.scratch[:0]
		arr := e.arrivals[:0]
		for _, l := range cur {
			if e.credit[l] <= 0 {
				e.inWork[l] = false
				continue
			}
			prev := int32(-1)
			p := e.qhead[l]
			for p >= 0 && e.arrived[p]-e.crossed[p] <= 0 {
				prev = p
				p = e.qnext[p]
			}
			if p < 0 {
				e.credit[l] = 0
				e.inWork[l] = false
				continue
			}
			e.crossed[p]++
			e.credit[l]--
			res.FlitsMoved++
			arr = append(arr, p)
			if e.crossed[p] == e.flits[e.posMsg[p]] {
				nx := e.qnext[p]
				if prev < 0 {
					e.qhead[l] = nx
				} else {
					e.qnext[prev] = nx
				}
				if nx < 0 {
					e.qtail[l] = prev
				}
				e.qlen[l]--
				e.queued[p] = false
			}
			if e.credit[l] > 0 {
				e.work = append(e.work, l)
			} else {
				e.inWork[l] = false
			}
		}
		enq := e.enq[:0]
		for _, p := range arr {
			mi := e.posMsg[p]
			next := p + 1
			if next == e.off[mi+1] {
				if e.crossed[p] == e.flits[mi] {
					remaining--
					res.DeliveredMsgs++
				}
				continue
			}
			switch mode {
			case CutThrough:
				e.arrived[next]++
				if e.queued[next] {
					e.addCredit(e.route[next], 1)
				}
			case StoreAndForward:
				e.buffer[next]++
				if e.buffer[next] == e.flits[mi] {
					e.arrived[next] = e.flits[mi]
					if e.queued[next] {
						e.addCredit(e.route[next], e.flits[mi]-e.crossed[next])
					}
				}
			}
			if !e.queued[next] && e.arrived[next] > 0 {
				enq = append(enq, next)
			}
		}
		slices.Sort(enq)
		for _, p := range enq {
			e.enqueue(p)
		}
		e.enq = enq
		e.arrivals = arr
		e.scratch = cur[:0]
	}
	res.Steps = step
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	e.res = nil
	return res, nil
}

// overheadWorkload is a congested synthetic batch sized so one run
// spends long enough in the step loop for timing to be meaningful.
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

// The baseline copy must stay semantically identical to Simulate, or
// the overhead comparison measures two different simulators.
func TestProbeOffEquivalentToBaseline(t *testing.T) {
	msgs := overheadWorkload()
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		e := NewEngine()
		base, err := e.simulateBaseline(msgs, mode)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := Simulate(msgs, mode)
		if err != nil {
			t.Fatal(err)
		}
		if *base != *cur {
			t.Errorf("%v: baseline copy drifted from Simulate: %+v vs %+v", mode, base, cur)
		}
	}
}

// nopProbe is a probe that records nothing.
type nopProbe struct{}

func (nopProbe) BeginRun(RunInfo)             {}
func (nopProbe) StepEnd(int, []int)           {}
func (nopProbe) FlitMoved(int, int32, int32)  {}
func (nopProbe) FlitDelivered(int, int32)     {}
func (nopProbe) FlitsDropped(int, int32, int) {}
func (nopProbe) MsgDone(int, int32, bool)     {}

// A probe-less Simulate performs exactly one allocation: the Result.
// SimulateWormhole likewise allocates only its WormholeResult. On a
// warm pool, SimulateFaults allocates only its FaultResult and
// Outcomes, and SimulateProbed its Result, probe or not: the one-shard
// kernel they run allocates no ring, runner or method value per call.
// A warm open-loop run allocates its OpenLoopResult and the trace's
// replay cursor, plus at three shards one closure per worker
// goroutine (the WaitGroup and barrier live in the pooled Engine).
func TestSimulateAllocs(t *testing.T) {
	msgs := overheadWorkload()
	e := NewEngine()
	if _, err := e.Simulate(msgs, CutThrough); err != nil { // warm buffers
		t.Fatal(err)
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		n := testing.AllocsPerRun(10, func() {
			if _, err := e.Simulate(msgs, mode); err != nil {
				t.Error(err)
			}
		})
		if n > 1 {
			t.Errorf("%v: %v allocs/run, want ≤ 1", mode, n)
		}
	}
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

// TestProbeOffOverhead enforces the ≤2% overhead contract: with no
// probe attached, Simulate may not be measurably slower than the
// pre-probe loop (Simulate has no probe hook, so the loops are the
// same code). Interleaved best-of-N timing keeps scheduler noise out;
// the assertion is skipped under -short and under the race detector,
// whose instrumentation swamps a 2% margin.
func TestProbeOffOverhead(t *testing.T) {
	if raceDetectorOn {
		t.Skip("overhead margin not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	msgs := overheadWorkload()
	eBase, eCur := NewEngine(), NewEngine()
	run := func(e *Engine, baseline bool) {
		var err error
		if baseline {
			_, err = e.simulateBaseline(msgs, CutThrough)
		} else {
			_, err = e.Simulate(msgs, CutThrough)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	timeOne := func(e *Engine, baseline bool) time.Duration {
		const iters = 20
		start := time.Now()
		for i := 0; i < iters; i++ {
			run(e, baseline)
		}
		return time.Since(start) / iters
	}
	// Warm both engines' buffers so growth never lands in a timed run.
	run(eBase, true)
	run(eCur, false)

	const margin = 1.02
	var best string
	for attempt := 0; attempt < 3; attempt++ {
		base, cur := time.Duration(1<<62), time.Duration(1<<62)
		for round := 0; round < 8; round++ {
			if d := timeOne(eBase, true); d < base {
				base = d
			}
			if d := timeOne(eCur, false); d < cur {
				cur = d
			}
		}
		ratio := float64(cur) / float64(base)
		if ratio <= margin {
			t.Logf("probe-off overhead %.2f%% (baseline %v, current %v)", (ratio-1)*100, base, cur)
			return
		}
		best = fmt.Sprintf("baseline %v, current %v (%.2f%%)", base, cur, (ratio-1)*100)
	}
	t.Errorf("probe-off overhead above %.0f%% margin after 3 attempts: %s",
		(margin-1)*100, best)
}
