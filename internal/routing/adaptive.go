package routing

import (
	"math/rand"

	"multipath/internal/hypercube"
	"multipath/internal/obsv"
)

// Feedback is implemented by strategies that consume measurement-
// window observations: Run hands the window's Recorder to Observe
// between windows, and the strategy re-plans its next batch of routes
// on what it saw. Adaptive is the one implementation in this package.
type Feedback interface {
	Observe(rec *obsv.Recorder)
}

// Adaptive routes minimally like MinimalOblivious, but scores
// candidate links with *measured* congestion instead of only its own
// bookkeeping: each hop crosses the differing-dimension link
// minimizing observed mean queue depth (from the previous measurement
// window's obsv.Recorder, via Observe) plus the routes this window has
// already placed on the link, ties broken uniformly. It also composes
// with internal/faults: as the run's netsim.FaultListener it records
// every permanently dead link (the selfheal dead-link set idiom) and
// steers subsequent routes around them — a dead candidate is chosen
// only when every differing dimension at that node is dead (the
// message then fails in the engine, which is the honest outcome:
// minimal routes cannot always avoid a cut).
//
// Determinism: cost updates happen only in Observe and the listener
// callbacks, all of which the engine fires in canonical order, so an
// adaptive run replays bit-identically from (pairs, trace, seed).
type Adaptive struct {
	q    *hypercube.Q
	cost []float64 // mean queue depth per dense link, last window
	own  []int32   // routes placed per dense link since last Observe
	dead []bool    // links reported permanently down
}

// NewAdaptive returns the feedback-driven strategy on q, with zero
// observed cost everywhere (the first window behaves like load-
// accounted minimal routing).
func NewAdaptive(q *hypercube.Q) *Adaptive {
	links := q.DirectedEdges()
	return &Adaptive{
		q:    q,
		cost: make([]float64, links),
		own:  make([]int32, links),
		dead: make([]bool, links),
	}
}

// Name implements Strategy.
func (a *Adaptive) Name() string { return "adaptive" }

// Reset clears observed costs, own-load accounting, and the dead-link
// set: the next batch starts blind.
func (a *Adaptive) Reset() {
	for i := range a.cost {
		a.cost[i] = 0
		a.own[i] = 0
		a.dead[i] = false
	}
}

// Observe implements Feedback: fold the window's per-link mean queue
// depths (RecorderOpts.LinkQueues, keyed by external id — the dense
// edge id for hypercube templates) into the cost table and reset the
// own-load counters for the next window's placement.
func (a *Adaptive) Observe(rec *obsv.Recorder) {
	for i := range a.cost {
		a.cost[i] = 0
		a.own[i] = 0
	}
	rec.EachLinkQueueDepth(func(link int, s obsv.LinkQueueStat) {
		if link < len(a.cost) {
			a.cost[link] = s.Mean()
		}
	})
}

// LinkDown implements netsim.FaultListener.
func (a *Adaptive) LinkDown(step, link int, permanent bool) {
	if permanent && link >= 0 && link < len(a.dead) {
		a.dead[link] = true
	}
}

// MsgFailed implements netsim.FaultListener: the blamed link is dead
// (link -1 is the StepLimit sweep — nothing to learn).
func (a *Adaptive) MsgFailed(step int, msg int32, link int) {
	if link >= 0 && link < len(a.dead) {
		a.dead[link] = true
	}
}

// Route implements Strategy.
func (a *Adaptive) Route(out []int32, src, dst hypercube.Node, rng *rand.Rand) []int32 {
	cur := src
	for cur != dst {
		chosen := a.pick(cur, dst, rng, false)
		if chosen < 0 {
			// Every differing dimension is dead here: take the least-cost
			// dead link and let the engine account the failure.
			chosen = a.pick(cur, dst, rng, true)
		}
		id := a.q.EdgeID(cur, chosen)
		a.own[id]++
		out = append(out, int32(id))
		cur ^= 1 << uint(chosen)
	}
	return out
}

// pick reservoir-samples the minimum-score differing dimension at cur
// (score = observed mean queue depth + routes already placed this
// window), skipping dead links unless allowDead; -1 when no candidate
// qualifies.
func (a *Adaptive) pick(cur, dst hypercube.Node, rng *rand.Rand, allowDead bool) int {
	best, ties, chosen := 0.0, 0, -1
	for d := 0; d < a.q.Dims(); d++ {
		if (cur^dst)&(1<<uint(d)) == 0 {
			continue
		}
		id := a.q.EdgeID(cur, d)
		if a.dead[id] != allowDead {
			continue
		}
		score := a.cost[id] + float64(a.own[id])
		switch {
		case chosen < 0 || score < best:
			best, ties, chosen = score, 1, d
		case score == best:
			ties++
			if rng.Intn(ties) == 0 {
				chosen = d
			}
		}
	}
	return chosen
}
