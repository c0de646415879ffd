package selfheal

import (
	"container/heap"
	"math/rand"
	"testing"
)

// stdRetryHeap is the retry queue on container/heap, ordered by step,
// then seq: the model the typed heap replaces, with its own comparison.
type stdRetryHeap []retryEntry

func (h stdRetryHeap) Len() int { return len(h) }
func (h stdRetryHeap) Less(i, j int) bool {
	if h[i].step != h[j].step {
		return h[i].step < h[j].step
	}
	return h[i].seq < h[j].seq
}
func (h stdRetryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stdRetryHeap) Push(x any)   { *h = append(*h, x.(retryEntry)) }
func (h *stdRetryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestSelfHealRetryHeapOrder drives the typed retry heap and
// container/heap through the same random push and pop sequences, with
// many equal steps so seq decides, and asserts the same pop order;
// then it pins that a warm push-and-pop pair allocates nothing.
func TestSelfHealRetryHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var got retryHeap
		var want stdRetryHeap
		seq := 0
		steps := 1 + rng.Intn(8) // few distinct steps: ties are common
		for op := 0; op < 300; op++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				e := retryEntry{step: rng.Intn(steps), seq: seq, t: int32(rng.Intn(50)), path: int16(rng.Intn(4)), prev: int16(rng.Intn(4))}
				seq++
				got.push(e)
				heap.Push(&want, e)
				continue
			}
			if g, w := got.pop(), heap.Pop(&want).(retryEntry); g != w {
				t.Fatalf("trial %d op %d: pop %+v, container/heap pops %+v", trial, op, g, w)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(retryEntry); g != w {
				t.Fatalf("trial %d drain: pop %+v, container/heap pops %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: typed heap keeps %d entries after the drain", trial, len(got))
		}
	}

	var h retryHeap
	for i := 0; i < 64; i++ {
		h.push(retryEntry{step: i % 5, seq: i})
	}
	seq := 64
	allocs := testing.AllocsPerRun(100, func() {
		h.push(retryEntry{step: seq % 5, seq: seq})
		seq++
		h.pop()
	})
	if allocs != 0 {
		t.Fatalf("warm push and pop allocated %.1f times, want 0", allocs)
	}
}
