package netsim

import (
	"runtime"
	"sync"
)

// idlePool keeps idle Engines, each with the closed-loop kernel's
// runner and the partition both buffered loops share, between runs, so
// a warm run allocates almost nothing. It is one LIFO
// stack shared by every P, and the garbage collector never empties it:
// a caller that runs simulations back to back gets back the value it
// returned last, buffers already grown to its inputs, whichever P it
// runs on and however often the heap is collected. A sync.Pool would
// not: it keeps a private value per P that other Ps cannot take, and
// it drops everything idle through two collections, so the same caller
// would now and then get a fresh value and regrow it from empty (about
// 100 MB of appends for a whole-cube open-loop arena), and how often
// would depend on scheduling.
//
// At most GOMAXPROCS values stay idle — one per concurrent caller, as
// SimulateBatch runs them; a put beyond that leaves the value to the
// garbage collector. The idle values keep their buffers, sized to the
// largest run each has served, for the life of the process.
type idlePool[T any] struct {
	mu   sync.Mutex
	idle []*T
	new  func() *T
}

// get pops the most recently returned idle value, or makes a new one.
func (p *idlePool[T]) get() *T {
	p.mu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.mu.Unlock()
		return p.new()
	}
	v := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	p.mu.Unlock()
	return v
}

// put returns v for reuse; the caller must hold no reference to it.
func (p *idlePool[T]) put(v *T) {
	p.mu.Lock()
	if len(p.idle) < runtime.GOMAXPROCS(0) {
		p.idle = append(p.idle, v)
	}
	p.mu.Unlock()
}
