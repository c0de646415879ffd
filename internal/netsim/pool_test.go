package netsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// TestShardedEntryPointsShareEnginePool interleaves every pooled entry
// point over inputs of three sizes and holds each outcome to the same
// run on a fresh Engine. One Engine pool serves them all — the sharded
// runners borrow from it too — so state that one entry point leaves in
// an Engine and another reads would show up here.
func TestShardedEntryPointsShareEnginePool(t *testing.T) {
	type input struct {
		msgs  []*Message
		tr    *Trace
		sched *faults.Schedule
	}
	var inputs []input
	for _, n := range []int{6, 3, 5} {
		q := hypercube.New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		msgs := PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 2)
		var links []int
		for _, m := range msgs {
			for _, id := range m.Route {
				links = append(links, int(id))
			}
		}
		sched := faults.NewSchedule().
			FailLink(links[0], 2).
			FailLinkTransient(links[len(links)/2], 1, 5).
			FailLink(links[len(links)-1], 7)
		tr := &Trace{}
		for i := 0; i < 4*len(msgs); i++ {
			tr.Arrivals = append(tr.Arrivals, Arrival{Step: i / 8, Tmpl: int32(i * 7 % len(msgs))})
		}
		inputs = append(inputs, input{msgs, tr, sched})
	}

	// openRun is an open-loop outcome: the result and everything the
	// callbacks saw.
	type openRun struct {
		res    *OpenLoopResult
		events []lisEvent
		lat    []int
	}
	open := func(in input, sim func(OpenLoopOpts) (*OpenLoopResult, error)) (any, error) {
		l, sink := &recListener{}, &sliceSink{}
		res, err := sim(OpenLoopOpts{Mode: CutThrough, Faults: in.sched, StepLimit: 20, Listener: l, Sink: sink})
		return openRun{res, l.ev, sink.vals}, err
	}
	faultOpts := func(in input) FaultOpts { return FaultOpts{Faults: in.sched, StepLimit: 8} }
	entries := []struct {
		name          string
		pooled, fresh func(input) (any, error)
	}{
		{"Simulate",
			func(in input) (any, error) { return Simulate(in.msgs, StoreAndForward) },
			func(in input) (any, error) { return NewEngine().Simulate(in.msgs, StoreAndForward) }},
		{"SimulateFaults",
			func(in input) (any, error) { return SimulateFaults(in.msgs, CutThrough, faultOpts(in)) },
			func(in input) (any, error) { return NewEngine().SimulateFaults(in.msgs, CutThrough, faultOpts(in)) }},
		{"SimulateWormhole",
			func(in input) (any, error) { return SimulateWormhole(in.msgs) },
			func(in input) (any, error) { return NewEngine().simulateWormhole(in.msgs) }},
		{"SimulateSharded",
			func(in input) (any, error) { return SimulateSharded(in.msgs, CutThrough, 3) },
			func(in input) (any, error) {
				res, _, _, err := (&sharded{e: NewEngine()}).run(in.msgs, CutThrough, FaultOpts{}, false, nil, 3, false)
				return res, err
			}},
		{"SimulateFaultsSharded",
			func(in input) (any, error) { return SimulateFaultsSharded(in.msgs, StoreAndForward, faultOpts(in), 3) },
			func(in input) (any, error) {
				_, fr, _, err := (&sharded{e: NewEngine()}).run(in.msgs, StoreAndForward, faultOpts(in), true, nil, 3, false)
				return fr, err
			}},
		{"SimulateOpenLoop",
			func(in input) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) { return SimulateOpenLoop(in.msgs, in.tr.Source(), o) })
			},
			func(in input) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) {
					return NewEngine().SimulateOpenLoop(in.msgs, in.tr.Source(), o)
				})
			}},
		{"SimulateOpenLoopSharded",
			func(in input) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) {
					return SimulateOpenLoopSharded(in.msgs, in.tr.Source(), o, 3)
				})
			},
			func(in input) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) {
					res, _, err := (&olSharded{e: NewEngine()}).run(in.msgs, in.tr.Source(), o, 3, false)
					return res, err
				})
			}},
	}
	for round := 0; round < 2; round++ {
		for i, in := range inputs {
			for _, e := range entries {
				got, gotErr := e.pooled(in)
				want, wantErr := e.fresh(in)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("round %d input %d %s: error %v, fresh engine %v", round, i, e.name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d input %d %s:\npooled %+v\nfresh  %+v", round, i, e.name, got, want)
				}
			}
		}
	}
}

// TestEnginePoolStaysWarm pins what keeps back-to-back runs steady: the
// pools hand a caller that runs one simulation after another the Engine
// and sharded runner it returned last, and garbage collections empty
// neither. A run repeated after two collections — enough for a
// sync.Pool to drop everything idle, and the arena to regrow from
// empty — allocates no more than a plain repeat.
func TestEnginePoolStaysWarm(t *testing.T) {
	tmpls, tr := coldWorkload(4096)
	for _, shards := range []int{1, 2} {
		run := func() {
			if _, err := SimulateOpenLoopSharded(tmpls, tr.Source(), OpenLoopOpts{Mode: CutThrough}, shards); err != nil {
				t.Fatal(err)
			}
		}
		run()
		warm := testing.AllocsPerRun(3, run)
		afterGC := testing.AllocsPerRun(3, func() {
			runtime.GC()
			runtime.GC()
			run()
		})
		t.Logf("shards=%d: %.0f allocs per repeat, %.0f after two collections", shards, warm, afterGC)
		// Fresh buffers for 4096 templates cost a few hundred
		// allocations; the slack only absorbs a stray allocation made
		// by another goroutine while counting.
		if afterGC > warm+32 {
			t.Errorf("shards=%d: a run after two collections allocated %.0f times, a plain repeat %.0f", shards, afterGC, warm)
		}
	}
}

// TestIdlePoolConcurrent hands values to many goroutines at once: no
// value is held by two of them at a time, and at most GOMAXPROCS stay
// idle afterwards.
func TestIdlePoolConcurrent(t *testing.T) {
	type box struct{ holder int }
	p := idlePool[box]{new: func() *box { return new(box) }}
	var wg sync.WaitGroup
	for g := 1; g <= 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				b := p.get()
				if b.holder != 0 {
					t.Errorf("goroutine %d got a value goroutine %d still holds", g, b.holder)
					return
				}
				b.holder = g
				runtime.Gosched()
				b.holder = 0
				p.put(b)
			}
		}()
	}
	wg.Wait()
	if n, limit := len(p.idle), runtime.GOMAXPROCS(0); n > limit {
		t.Errorf("%d idle values, want at most GOMAXPROCS = %d", n, limit)
	}
}
