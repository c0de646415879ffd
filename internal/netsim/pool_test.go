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

// poolInput is one workload of the pool tests: a random permutation's
// messages, a schedule that kills and delays some of their links, and
// an open-loop trace over them as templates.
type poolInput struct {
	msgs  []*Message
	tr    *Trace
	sched *faults.Schedule
}

// poolInputs returns workloads on the cubes of dimension 6, 3 and 5.
func poolInputs() []poolInput {
	var inputs []poolInput
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
		inputs = append(inputs, poolInput{msgs, tr, sched})
	}
	return inputs
}

// TestShardedEntryPointsShareEnginePool interleaves every pooled entry
// point over inputs of three sizes and holds each outcome to the same
// run on a fresh Engine. One Engine pool serves them all — the sharded
// runners borrow from it too — so state that one entry point leaves in
// an Engine and another reads would show up here.
func TestShardedEntryPointsShareEnginePool(t *testing.T) {
	inputs := poolInputs()

	// openRun is an open-loop outcome: the result and everything the
	// callbacks saw.
	type openRun struct {
		res    *OpenLoopResult
		events []lisEvent
		lat    []int
	}
	open := func(in poolInput, sim func(OpenLoopOpts) (*OpenLoopResult, error)) (any, error) {
		l, sink := &recListener{}, &sliceSink{}
		res, err := sim(OpenLoopOpts{Mode: CutThrough, Faults: in.sched, StepLimit: 20, Listener: l, Sink: sink})
		return openRun{res, l.ev, sink.vals}, err
	}
	faultOpts := func(in poolInput) FaultOpts { return FaultOpts{Faults: in.sched, StepLimit: 8} }
	entries := []struct {
		name          string
		pooled, fresh func(poolInput) (any, error)
	}{
		{"Simulate",
			func(in poolInput) (any, error) { return Simulate(in.msgs, StoreAndForward) },
			func(in poolInput) (any, error) { return NewEngine().Simulate(in.msgs, StoreAndForward) }},
		{"SimulateFaults",
			func(in poolInput) (any, error) { return SimulateFaults(in.msgs, CutThrough, faultOpts(in)) },
			func(in poolInput) (any, error) {
				return simulateFaultsOn(NewEngine(), in.msgs, CutThrough, faultOpts(in))
			}},
		{"SimulateWormhole",
			func(in poolInput) (any, error) { return SimulateWormhole(in.msgs) },
			func(in poolInput) (any, error) { return NewEngine().simulateWormhole(in.msgs, nil) }},
		{"SimulateSharded",
			func(in poolInput) (any, error) { return SimulateSharded(in.msgs, CutThrough, 3) },
			func(in poolInput) (any, error) {
				res, _, _, err := (&sharded{e: NewEngine()}).run(in.msgs, CutThrough, FaultOpts{}, false, 3, false)
				return res, err
			}},
		{"SimulateFaultsSharded",
			func(in poolInput) (any, error) {
				return SimulateFaultsSharded(in.msgs, StoreAndForward, faultOpts(in), 3)
			},
			func(in poolInput) (any, error) {
				_, fr, _, err := (&sharded{e: NewEngine()}).run(in.msgs, StoreAndForward, faultOpts(in), true, 3, false)
				return fr, err
			}},
		{"SimulateOpenLoop",
			func(in poolInput) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) { return SimulateOpenLoop(in.msgs, in.tr.Source(), o) })
			},
			func(in poolInput) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) {
					res, _, err := NewEngine().openLoop(in.msgs, in.tr.Source(), o, 1, false)
					return res, err
				})
			}},
		{"SimulateOpenLoopSharded",
			func(in poolInput) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) {
					return SimulateOpenLoopSharded(in.msgs, in.tr.Source(), o, 3)
				})
			},
			func(in poolInput) (any, error) {
				return open(in, func(o OpenLoopOpts) (*OpenLoopResult, error) {
					res, _, err := NewEngine().openLoop(in.msgs, in.tr.Source(), o, 3, false)
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

// TestShardedRunnerPoolConcurrentCallers has 8 goroutines draw
// runners from shardedPool and engines from enginePool at once —
// SimulateFaults and SimulateProbed run the closed-loop kernel at one
// shard on a pooled runner, SimulateFaultsSharded at three, and
// SimulateOpenLoopSharded the open loop at three on the engine's
// partition — and holds every result to a serial run of the same call.
func TestShardedRunnerPoolConcurrentCallers(t *testing.T) {
	type outcome struct {
		faults, sharded *FaultResult
		probed          *Result
		open            *OpenLoopResult
	}
	run := func(in poolInput) (o outcome, err error) {
		opts := FaultOpts{Faults: in.sched, StepLimit: 8}
		if o.faults, err = SimulateFaults(in.msgs, CutThrough, opts); err != nil {
			return o, err
		}
		if o.probed, err = SimulateProbed(in.msgs, StoreAndForward, nopProbe{}); err != nil {
			return o, err
		}
		if o.sharded, err = SimulateFaultsSharded(in.msgs, StoreAndForward, opts, 3); err != nil {
			return o, err
		}
		o.open, err = SimulateOpenLoopSharded(in.msgs, in.tr.Source(), OpenLoopOpts{Mode: CutThrough, Faults: in.sched, StepLimit: 12}, 3)
		return o, err
	}
	inputs := poolInputs()
	want := make([]outcome, len(inputs))
	for i, in := range inputs {
		var err error
		if want[i], err = run(in); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, in := range inputs {
					got, err := run(in)
					if err != nil {
						t.Errorf("goroutine %d round %d input %d: %v", g, round, i, err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d round %d input %d:\n got %+v\nwant %+v", g, round, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
