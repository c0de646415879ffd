package netsim

import "sync/atomic"

// spscRing is a bounded single-producer single-consumer ring of route
// positions, used as the boundary-flit channel between one ordered
// pair of shards: the producing shard pushes during its transfer
// phase, the consuming shard pops during its arrival phase. The two
// phases are separated by the step barrier, so the ring is never
// pushed and popped concurrently — the acquire/release pairing below
// nevertheless makes the ring independently correct (and keeps the
// race detector's view of the handoff explicit rather than resting on
// the barrier alone).
//
// The capacity is fixed: when a step produces more boundary flits for
// one destination shard than the ring holds, push reports false and
// the producer appends to its (unbounded, producer-owned) spill slice,
// which the consumer drains after the ring. Boundedness keeps the
// per-pair footprint O(1) in the common case without ever blocking a
// shard mid-step, which would deadlock the barrier.
type spscRing struct {
	buf  []int32
	mask uint32
	head atomic.Uint32 // next slot to pop (consumer-owned)
	tail atomic.Uint32 // next slot to push (producer-owned)
}

// ringCap is the per-pair ring capacity (entries, power of two). With
// at most 255 shards the worst-case footprint is pairs·ringCap·4B,
// where a shard keeps no ring to itself; at the benchmarked 8 shards
// it is 56·4096·4B ≈ 0.9 MiB.
const ringCap = 1 << 12

func newSPSCRing() *spscRing {
	return &spscRing{buf: make([]int32, ringCap), mask: ringCap - 1}
}

// push appends p, reporting false (and leaving the ring unchanged)
// when the ring is full.
func (r *spscRing) push(p int32) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint32(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = p
	r.tail.Store(t + 1) // release: publishes buf[t] to the consumer
	return true
}

// pop removes the oldest position, reporting false when empty.
func (r *spscRing) pop() (int32, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	p := r.buf[h&r.mask]
	r.head.Store(h + 1)
	return p, true
}
