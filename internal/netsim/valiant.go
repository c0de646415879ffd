package netsim

import (
	"math/rand"

	"multipath/internal/bitutil"
	"multipath/internal/hamdecomp"
	"multipath/internal/hypercube"
)

// Randomized two-phase (Valiant) routing and adversarial permutations.
// The paper's §7 builds on the randomized store-and-forward routers of
// Valiant/Karlin–Upfal/Pippenger/Ranade ([17, 20, 23]): oblivious
// deterministic routing has permutations with Ω(√N) congestion, while
// routing via a random intermediate destination makes every permutation
// behave like an average one.

// BitReversalPermutation returns the classic adversary for e-cube
// routing on Q_n: node v goes to the bit-reversal of v. Dimension-
// ordered routes funnel 2^{n/2} messages through single links.
func BitReversalPermutation(n int) []int {
	out := make([]int, 1<<uint(n))
	for v := range out {
		out[v] = int(bitutil.ReverseBits(uint32(v), n))
	}
	return out
}

// TransposePermutation swaps the high and low halves of each address
// (matrix transpose), another e-cube adversary. n must be even.
func TransposePermutation(n int) []int {
	h := n / 2
	mask := 1<<uint(h) - 1
	out := make([]int, 1<<uint(n))
	for v := range out {
		lo := v & mask
		hi := v >> uint(h)
		out[v] = lo<<uint(h) | hi
	}
	return out
}

// ValiantMessages routes each message of a permutation through a
// uniformly random intermediate node: phase 1 e-cube to the
// intermediate, phase 2 e-cube to the destination. With high
// probability no link carries more than O(1) times the average load.
// The routes share one id arena, sized for the mean route of n hops.
func ValiantMessages(q *hypercube.Q, perm []int, flits int, rng *rand.Rand) []*Message {
	ids := make([]int32, 0, len(perm)*q.Dims())
	hdrs := make([]Message, len(perm))
	for src, dst := range perm {
		mid := hypercube.Node(rng.Intn(q.Nodes()))
		at := len(ids)
		ids = AppendECubeRoute(ids, q, hypercube.Node(src), mid)
		ids = AppendECubeRoute(ids, q, mid, hypercube.Node(dst))
		hdrs[src] = Message{Route: ids[at:], Flits: flits}
	}
	SliceRoutes(hdrs, ids)
	msgs := make([]*Message, len(hdrs))
	for i := range hdrs {
		msgs[i] = &hdrs[i]
	}
	return msgs
}

// MaxLinkLoad returns the maximum number of messages whose route uses
// any single directed link — the static congestion that lower-bounds
// completion time.
func MaxLinkLoad(msgs []*Message) int {
	load := make(map[int32]int)
	max := 0
	for _, m := range msgs {
		for _, id := range m.Route {
			load[id]++
			if load[id] > max {
				max = load[id]
			}
		}
	}
	return max
}

// BroadcastMessages models §8.1's large-copy broadcast: the source
// splits B flits into one chunk per directed Hamiltonian cycle of
// Lemma 1 and pipelines each chunk around its cycle, reaching every
// node. Completion under cut-through is (2^n - 1) + B/n - 1 steps,
// versus (2^n - 1) + B - 1 along a single cycle.
func BroadcastMessages(q *hypercube.Q, flits int, multi bool) ([]*Message, error) {
	dec, err := hamdecomp.Decompose(q.Dims())
	if err != nil {
		return nil, err
	}
	cycles := dec.Directed()
	if !multi {
		cycles = cycles[:1]
	}
	chunk := (flits + len(cycles) - 1) / len(cycles)
	hops := 0
	for _, cyc := range cycles {
		hops += len(cyc) - 1
	}
	ids := make([]int32, 0, hops)
	hdrs := make([]Message, len(cycles))
	msgs := make([]*Message, len(cycles))
	for c, cyc := range cycles {
		at := len(ids)
		start := 0
		for i, v := range cyc {
			if v == 0 {
				start = i
				break
			}
		}
		for t := 0; t+1 < len(cyc); t++ {
			u := cyc[(start+t)%len(cyc)]
			v := cyc[(start+t+1)%len(cyc)]
			id, err := q.EdgeBetween(u, v)
			if err != nil {
				return nil, err
			}
			ids = append(ids, int32(id))
		}
		hdrs[c] = Message{Route: ids[at:len(ids):len(ids)], Flits: chunk}
		msgs[c] = &hdrs[c]
	}
	return msgs, nil
}
