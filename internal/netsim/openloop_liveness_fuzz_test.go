package netsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// The bounds a liveSource keeps on itself. The inputs cannot reach
// them: at most 24 base arrivals and 31 reactions, each failing at
// most once after LinkDown events on at most six hops, and re-polls at
// most twice per simulated step. An engine looping on its source or
// listener hits one within microseconds instead.
const (
	liveMaxArrivals = 256
	liveMaxCalls    = 1024
	liveMaxNext     = 1 << 14
)

// livenessBound is the panic value of a liveSource whose bound was hit.
type livenessBound string

// liveRule is one reaction of a liveSource: an arrival of template
// tmpl at the callback's step plus delta, or nothing when skip.
type liveRule struct {
	skip  bool
	delta int
	tmpl  int32
}

// liveSource is FuzzOpenLoopLiveness's reacting session: the run's
// ArrivalSource and FaultListener at once. Its queue starts as the
// base trace; callback i applies rule i (cycled) while budget lasts,
// inserting the arrival in step order, so reactions land at past,
// current and future steps. It records the callbacks it receives.
type liveSource struct {
	queue                  []Arrival
	rules                  []liveRule
	budget                 int
	nexts, calls, arrivals int
	ev                     []lisEvent
}

func (s *liveSource) Next() (Arrival, bool) {
	if s.nexts++; s.nexts > liveMaxNext {
		panic(livenessBound(fmt.Sprintf("more than %d Next calls", liveMaxNext)))
	}
	if len(s.queue) == 0 {
		return Arrival{}, false
	}
	if s.arrivals++; s.arrivals > liveMaxArrivals {
		panic(livenessBound(fmt.Sprintf("more than %d arrivals", liveMaxArrivals)))
	}
	a := s.queue[0]
	s.queue = s.queue[1:]
	return a, true
}

func (s *liveSource) LinkDown(step, link int, permanent bool) {
	s.ev = append(s.ev, lisEvent{kind: "down", step: step, link: link, perm: permanent})
	s.react(step)
}

func (s *liveSource) MsgFailed(step int, msg int32, link int) {
	s.ev = append(s.ev, lisEvent{kind: "fail", step: step, link: link, msg: msg})
	s.react(step)
}

func (s *liveSource) react(step int) {
	if s.calls++; s.calls > liveMaxCalls {
		panic(livenessBound(fmt.Sprintf("more than %d callbacks", liveMaxCalls)))
	}
	if len(s.rules) == 0 || s.budget == 0 {
		return
	}
	r := s.rules[(s.calls-1)%len(s.rules)]
	if r.skip {
		return
	}
	s.budget--
	a := Arrival{Step: step + r.delta, Tmpl: r.tmpl}
	i := 0
	for i < len(s.queue) && s.queue[i].Step <= a.Step {
		i++
	}
	s.queue = slices.Insert(s.queue, i, a)
}

// decodeLivenessInput turns fuzz bytes into a reacting run: up to four
// templates that walk Q_3 or Q_4 (up to six hops, up to four flits),
// the mode, a fault schedule of up to four permanent or transient
// outages on links the templates cross, an optional StepLimit, and the
// source's reaction budget and rules. The decode is total.
func decodeLivenessInput(tmplData, faultData, reactData []byte) (tmpls []*Message, mode Mode, sched *faults.Schedule, limit, budget int, rules []liveRule) {
	bytesOf := func(data []byte) func() int {
		at := 0
		return func() int {
			if at >= len(data) {
				return 0
			}
			at++
			return int(data[at-1])
		}
	}
	next := bytesOf(tmplData)
	q := hypercube.New(3 + next()%2)
	mode = Mode(next() % 2)
	var crossed []int
	for i, count := 0, 1+next()%4; i < count; i++ {
		v := hypercube.Node(next() % q.Nodes())
		route := make([]int32, next()%7)
		for h := range route {
			d := next() % q.Dims()
			route[h] = int32(q.EdgeID(v, d))
			crossed = append(crossed, int(route[h]))
			v = q.Neighbor(v, d)
		}
		tmpls = append(tmpls, &Message{Route: route, Flits: 1 + next()%4})
	}
	next = bytesOf(faultData)
	sched = faults.NewSchedule()
	for i, events := 0, next()%5; i < events && len(crossed) > 0; i++ {
		link := crossed[next()%len(crossed)]
		from := 1 + next()%24
		if next()%2 == 0 {
			sched.FailLink(link, from)
		} else {
			sched.FailLinkTransient(link, from, from+1+next()%24)
		}
	}
	if b := next(); b%3 != 0 {
		limit = 10 + b%90
	}
	next = bytesOf(reactData)
	budget = next() % 32
	for i, count := 0, next()%6; i < count; i++ {
		r, t := next(), next()
		rules = append(rules, liveRule{skip: r%3 == 0, delta: r/3%11 - 5, tmpl: int32(t % len(tmpls))})
	}
	return tmpls, mode, sched, limit, budget, rules
}

// liveRun runs one simulation on its own goroutine and returns its
// outcome. The test fails when the source reports a bound or when the
// run has not returned after 10 s: an engine spinning without calling
// its source or listener (the leap landing waiting for an arrival it
// can never inject) would otherwise stall go test.
func liveRun(t *testing.T, label string, run func() (*OpenLoopResult, error)) (*OpenLoopResult, error) {
	t.Helper()
	type outcome struct {
		olr   *OpenLoopResult
		err   error
		bound livenessBound
	}
	c := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				b, ok := r.(livenessBound)
				if !ok {
					panic(r)
				}
				c <- outcome{bound: b}
			}
		}()
		olr, err := run()
		c <- outcome{olr: olr, err: err}
	}()
	watchdog := time.NewTimer(10 * time.Second)
	defer watchdog.Stop()
	select {
	case o := <-c:
		if o.bound != "" {
			t.Fatalf("%s: the source hit a bound: %s", label, o.bound)
		}
		return o.olr, o.err
	case <-watchdog.C:
		t.Fatalf("%s: the run did not return within 10 s", label)
	}
	return nil, nil
}

// FuzzOpenLoopLiveness holds reacting open-loop runs to the liveness
// contract, every run ends: for random Q_3/Q_4 templates, fault
// sets, StepLimits and a source that, as the run's FaultListener,
// answers LinkDown and MsgFailed with arrivals at past, current and
// future steps, the engine at 1, 2 and 3 shards and the golden model
// each return a result or an error within the source's bounds and the
// watchdog, and all four agree: the same error text, or the same
// OpenLoopResult (SkippedSteps masked for the reference, which never
// leaps), per-message records and listener event stream.
func FuzzOpenLoopLiveness(f *testing.F) {
	// TestOpenLoopListenerRepollPastStep's input on Q_3: a six-hop walk
	// whose fourth link (21) is permanently down from step 4, a one-hop
	// template, one arrival at step 1, and a session answering the
	// step-5 MsgFailed with an arrival at step 1.
	f.Add([]byte{0, 1, 1, 0, 6, 0, 1, 2, 0, 1, 2, 0, 2, 1, 0, 0}, []byte{1, 3, 1, 0}, []byte{1, 3, 3, 0, 0}, []byte{1, 2, 0, 0, 4, 1})
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})
	f.Add([]byte{1, 1, 3, 5, 4, 0, 1, 2, 3, 1, 9, 3, 2, 1, 0, 2, 12, 2, 3, 0, 3}, []byte{6, 2, 0, 1, 1, 3, 2, 0, 7, 1}, []byte{3, 0, 3, 0, 2, 1, 5, 1, 7, 1, 2}, []byte{20, 3, 4, 1, 16, 2, 30, 0})
	f.Add([]byte{0, 1, 2, 1, 3, 0, 1, 2, 2, 6, 2, 2, 1, 0, 1}, []byte{4, 0, 0, 1, 3, 0}, []byte{2, 0, 2, 1, 0, 4, 9, 2}, []byte{31, 4, 1, 0, 17, 1, 14, 2, 29, 0})
	f.Fuzz(func(t *testing.T, tmplData, arrData, faultData, reactData []byte) {
		tmpls, mode, sched, limit, budget, rules := decodeLivenessInput(tmplData, faultData, reactData)
		base := decodeFuzzArrivals(arrData, len(tmpls)).Arrivals
		type outcome struct {
			olr *OpenLoopResult
			err error
			rec map[int32]msgRec
			ev  []lisEvent
		}
		do := func(label string, sim func([]*Message, ArrivalSource, OpenLoopOpts) (*OpenLoopResult, error)) outcome {
			src := &liveSource{queue: slices.Clone(base), rules: rules, budget: budget}
			rec := map[int32]msgRec{}
			opts := OpenLoopOpts{Mode: mode, Faults: sched, StepLimit: limit, PerMessage: recordPerMsg(rec), Listener: src}
			olr, err := liveRun(t, label, func() (*OpenLoopResult, error) { return sim(tmpls, src, opts) })
			return outcome{olr, err, rec, src.ev}
		}
		want := do("reference", SimulateOpenLoopReference)
		for _, shards := range []int{1, 2, 3} {
			label := fmt.Sprintf("shards=%d", shards)
			got := do(label, func(tm []*Message, src ArrivalSource, o OpenLoopOpts) (*OpenLoopResult, error) {
				return SimulateOpenLoopSharded(tm, src, o, shards)
			})
			if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
				t.Fatalf("%s: error %v, golden model %v", label, got.err, want.err)
			}
			if got.err == nil {
				masked := *got.olr
				masked.SkippedSteps = 0
				if !reflect.DeepEqual(&masked, want.olr) {
					t.Fatalf("%s: result diverged from the golden model:\nengine    %+v\nreference %+v", label, masked, *want.olr)
				}
				if !reflect.DeepEqual(got.rec, want.rec) {
					t.Fatalf("%s: per-message records diverged from the golden model", label)
				}
			}
			if !reflect.DeepEqual(got.ev, want.ev) {
				t.Fatalf("%s: listener events diverged from the golden model:\nengine    %v\nreference %v", label, got.ev, want.ev)
			}
		}
	})
}
