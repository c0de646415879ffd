package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// bench is the context every op calls the library through. It carries
// the round's accounting — flit-hops the simulator moved and a digest of
// every simulated statistic — and, in traced rounds, the span recorder.
type bench struct {
	tr     *tracer // nil outside traced rounds
	hops   int64
	digest hash.Hash

	// delayLayer names the layer whose calls get delayFrac of their own
	// duration added, so the compare self-test knows which layer moved.
	delayLayer string
}

const delayFrac = 0.10

// call runs fn as one call into layer. In traced rounds it records the
// span "layer.name" around it.
func call[T any](b *bench, layer, name string, fn func() (T, error)) (T, error) {
	id := b.begin(layer, name, false)
	start := time.Now()
	v, err := fn()
	if layer == b.delayLayer {
		spin(time.Duration(delayFrac * float64(time.Since(start))))
	}
	b.end(id)
	return v, err
}

// split runs fn only in traced rounds. Split calls exist to divide a
// layer's time from outside (the numbering pass, the retained builders);
// they are excluded from trace.overhead_frac.
func (b *bench) split(layer, name string, fn func() error) error {
	if b.tr == nil {
		return nil
	}
	id := b.begin(layer, name, true)
	err := fn()
	b.end(id)
	return err
}

func (b *bench) begin(layer, name string, split bool) int32 {
	if b.tr == nil {
		return -1
	}
	return b.tr.begin(layer, name, split)
}

func (b *bench) end(id int32) {
	if id >= 0 {
		b.tr.end(id)
	}
}

// count adds v to the per-layer counter key; max raises it to v. Both
// are no-ops outside traced rounds.
func (b *bench) count(key string, v float64) {
	if b.tr != nil {
		b.tr.counts[key] += v
	}
}

func (b *bench) max(key string, v float64) {
	if b.tr != nil && v > b.tr.counts[key] {
		b.tr.counts[key] = v
	}
}

// sum folds one op's simulated statistics into the round digest.
func (b *bench) sum(format string, args ...any) {
	fmt.Fprintf(b.digest, format+"\n", args...)
}

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// roundResult is one round's outcome.
type roundResult struct {
	wall      time.Duration
	splitTime time.Duration // in split calls, traced rounds only
	hops      int64
	ops       int
	failed    int
	errs      []string
	digest    string
	// peakHeap is the largest live heap seen at a GC end in the round.
	peakHeap uint64
}

// runRound runs every op once, in order, as a closed loop: each op
// starts when the previous one returns. runtime.GC is never called
// between ops — it would empty netsim's engine pool.
func runRound(ops []op, b *bench) roundResult {
	b.hops, b.digest = 0, sha256.New()
	var split0 time.Duration
	if b.tr != nil {
		split0 = b.tr.splitTime
	}
	start := time.Now()
	root := b.begin("bench", "round", false)
	var r roundResult
	for i, o := range ops {
		if b.tr != nil {
			b.tr.op++
		}
		id := b.begin("bench", o.name, false)
		err := o.run(b)
		b.end(id)
		r.ops++
		if err != nil {
			r.failed++
			r.errs = append(r.errs, fmt.Sprintf("op %d %s: %v", i, o.name, err))
		}
	}
	b.end(root)
	r.wall = time.Since(start)
	if b.tr != nil {
		r.splitTime = b.tr.splitTime - split0
		b.tr.rounds++
	}
	r.hops = b.hops
	r.digest = fmt.Sprintf("%x", b.digest.Sum(nil))
	return r
}

// phase is a run of rounds under one time budget.
type phase struct {
	rounds  []roundResult
	mallocs uint64 // heap allocations over the phase
}

// runPhase repeats the round until the next one would overrun budget,
// and at least minRounds times.
func runPhase(ops []op, b *bench, budget time.Duration, minRounds int) phase {
	var p phase
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for {
		hw := watchHeap()
		r := runRound(ops, b)
		r.peakHeap = hw.stop()
		p.rounds = append(p.rounds, r)
		elapsed := time.Since(start)
		mean := elapsed / time.Duration(len(p.rounds))
		if len(p.rounds) >= minRounds && elapsed+mean > budget {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	return p
}

// heapWatch records the largest live heap at the end of any GC cycle
// while it runs. A finalizer on a sentinel object fires once per cycle
// and re-arms itself, so no goroutine polls and no GC is forced.
type heapWatch struct {
	stopped atomic.Bool
	peak    atomic.Uint64
	sample  []metrics.Sample
}

// sentinel is large enough and holds a pointer, so it never shares a
// tiny-allocator block that would keep it alive.
type sentinel struct {
	_ *int
	_ [4]uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if w.stopped.Load() {
			return
		}
		w.observe()
		w.arm()
	})
}

func (w *heapWatch) observe() {
	metrics.Read(w.sample)
	if v := w.sample[0].Value.Uint64(); v > w.peak.Load() {
		w.peak.Store(v)
	}
}

// stop ends the watch and returns the peak. The last GC's live heap is
// included, so a phase with no GC still reports the heap it ran on.
func (w *heapWatch) stop() uint64 {
	w.stopped.Store(true)
	last := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(last)
	return max(w.peak.Load(), last[0].Value.Uint64())
}
