// Package selfheal is the self-healing transport: a session layer over
// the open-loop engine where each logical transfer owns the Width()
// edge-disjoint host paths of its guest edge and reacts to link
// failures while traffic keeps flowing. It heals *in flight*, inside
// one run:
//
//   - The session registers as the run's netsim.FaultListener, so the
//     engine reports every link death and the message ids it doomed,
//     in an order that is canonical across shard counts.
//   - The session is also the run's netsim.ArrivalSource. A failed
//     piece is re-enqueued as a new arrival at a backoff-chosen later
//     step on the next surviving sibling path in cyclic order; the
//     engine re-polls the source after exhaustion whenever a listener
//     is attached, so reroutes scheduled mid-run are picked up. Links
//     reported dead steer both retries and *new* transfers away from
//     doomed paths.
//   - Policy objects keep every run replayable: bounded retries, a
//     per-transfer relative deadline, and deterministic backoff
//     (fixed, or seeded exponential with stateless hash jitter).
//   - Strategy IDA is the zero-retry alternative: each transfer
//     disperses over all paths up front and completes when any K
//     pieces land, k-of-n instead of retry.
//
// Determinism: every session decision is driven by callbacks the
// engine fires in the same canonical order at every shard count, and
// the jitter hash needs no shared rng state, so a (trace, config,
// shards) triple replays bit-identically and the aggregate Report is
// identical across shard counts.
package selfheal

import (
	"fmt"
	"math"

	"multipath/internal/core"
	"multipath/internal/faults"
	"multipath/internal/netsim"
	"multipath/internal/traffic"
)

// Strategy selects how a transfer uses its disjoint path bundle.
type Strategy int

const (
	// Reroute sends one piece on one path and, on failure, re-enqueues
	// it on the next surviving path in cyclic order after a backoff
	// delay — at most Config.MaxRetries times.
	Reroute Strategy = iota
	// IDA disperses each transfer over all paths of its bundle at
	// arrival and delivers when any Config.K pieces land — zero
	// retries, pure k-of-n redundancy (§6 of the paper).
	IDA
)

func (s Strategy) String() string {
	if s == IDA {
		return "ida"
	}
	return "reroute"
}

// Backoff maps a retry attempt to a delay in steps. Implementations
// must be deterministic: the self-healing session calls Delay from
// engine callbacks whose order is canonical across shard counts, and
// replayability of whole runs reduces to replayability of Delay.
type Backoff interface {
	// Delay returns the number of steps to wait before injecting retry
	// `attempt` (1-based) of transfer id. Negative returns are treated
	// as 0 (retry next step).
	Delay(attempt int, id int32) int
}

// FixedBackoff waits the same number of steps before every retry.
type FixedBackoff struct {
	Steps int
}

// Delay implements Backoff.
func (b FixedBackoff) Delay(int, int32) int { return b.Steps }

// ExpBackoff is deterministic seeded exponential backoff with jitter:
// attempt k waits Base·2^(k-1) steps plus a jitter of up to Jitter
// times that, drawn by a stateless hash of (Seed, transfer id,
// attempt) — no shared rng state, so the draw is independent of
// callback interleaving and replays exactly. Cap bounds the *final*
// delay: jitter is applied first and the sum clamped, so Delay never
// exceeds Cap. (An earlier version clamped before adding jitter,
// letting delays escape to Cap·(1+Jitter); the regression test pins
// the fixed order.)
type ExpBackoff struct {
	Base   int     // first retry delay in steps (values < 1 mean 1)
	Cap    int     // ceiling on the post-jitter delay; 0 = uncapped
	Jitter float64 // jitter fraction of the delay, typically in [0, 1]
	Seed   int64   // jitter hash seed
}

// Delay implements Backoff.
func (b ExpBackoff) Delay(attempt int, id int32) int {
	base := b.Base
	if base < 1 {
		base = 1
	}
	sh := attempt - 1
	if sh > 30 {
		sh = 30 // past ~10^9 steps the exact value no longer matters
	}
	d := base << sh
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	if b.Jitter > 0 {
		d += int(float64(d) * b.Jitter * faults.Hash01(b.Seed, int(id), attempt))
		if b.Cap > 0 && d > b.Cap {
			d = b.Cap
		}
	}
	return d
}

// Config parameterizes a self-healing run.
type Config struct {
	// Mode is the switching discipline (StoreAndForward or CutThrough).
	Mode netsim.Mode
	// Flits is the payload size of one transfer. Reroute sends it
	// whole; IDA splits it into ceil(Flits/K)-flit pieces, one per
	// path. Values < 1 mean 1.
	Flits int
	// Strategy selects Reroute (retry on surviving siblings) or IDA
	// (k-of-n dispersal, zero retries).
	Strategy Strategy
	// K is the IDA threshold: pieces needed to reconstruct. Clamped to
	// [1, width] per bundle; values < 1 mean 1.
	K int
	// MaxRetries bounds the retry injections of one transfer (Reroute
	// only). 0 means a failed transfer is abandoned immediately.
	MaxRetries int
	// Deadline, when positive, is the per-transfer completion budget in
	// steps relative to its arrival: a transfer not delivered within
	// Deadline steps counts as a deadline miss, and retries that could
	// only land past the deadline are not injected at all.
	Deadline int
	// Backoff schedules retry delays; nil means FixedBackoff{Steps: 1}.
	Backoff Backoff
	// Faults is the link fault schedule (nil for a clean fabric).
	Faults netsim.LinkFaults
	// StepLimit and Shards pass through to the open-loop engine: the
	// graceful timeout and the worker partition width.
	StepLimit int
	Shards    int
	// MeasureAfter is the warm-up cutoff for the latency sinks: only
	// transfers arriving at or after it are observed.
	MeasureAfter int
	// Sink, when non-nil, receives completion_step − arrival_step for
	// every delivered transfer arriving at or after MeasureAfter.
	Sink netsim.LatencySink
	// RepairedSink, when non-nil, receives the same latency for the
	// delivered transfers that needed at least one retry — the
	// post-repair latency distribution.
	RepairedSink netsim.LatencySink
	// PerTransfer, when non-nil, is called once per transfer: at its
	// completion step (delivered=true), or after the run for transfers
	// that never completed (delivered=false, done=-1). retries is the
	// number of retry pieces emitted for it.
	PerTransfer func(t int32, arrival, done int, delivered bool, retries int)
	// Probe passes through to the engine (netsim.OpenLoopOpts.Probe).
	Probe netsim.Probe
}

// Report aggregates one self-healing run. Piece-level engine counters
// (and the conservation invariant FlitsMoved + DroppedFlits ==
// InjectedHops) are in Engine; the session-level invariant is
// Engine.Injected == base pieces injected + Retries.
type Report struct {
	// Transfers is the number of logical transfers started (an IDA
	// transfer counts once, not per piece).
	Transfers int
	// Delivered counts transfers that completed (Reroute: the piece
	// landed; IDA: K pieces landed), and DeliveredFraction is the
	// ratio over Transfers.
	Delivered         int
	DeliveredFraction float64
	// DeadlineMisses counts transfers with Config.Deadline > 0 that
	// did not complete within the deadline (late or never).
	DeadlineMisses       int
	DeadlineMissFraction float64
	// Retries is the number of retry pieces actually injected;
	// Reroutes counts those injected on a different path than the
	// failed attempt.
	Retries  int
	Reroutes int
	// Abandoned counts transfers the session gave up on: retries
	// exhausted, no surviving sibling path, or deadline unreachable.
	Abandoned int
	// DeadLinks is the number of distinct links the session learned
	// were permanently down.
	DeadLinks int
	// Engine is the underlying open-loop result (piece granularity).
	Engine netsim.OpenLoopResult
}

// transfer is one logical transfer's session state.
type transfer struct {
	bundle    int32
	arrival   int
	firstPath int16 // Reroute: path of the initial piece
	attempt   int   // retries scheduled so far
	delivered int   // pieces landed
	failed    int   // pieces definitively lost (IDA accounting)
	retries   int   // retry pieces emitted
	done      bool  // no further session action for this transfer
	ok        bool
	abandoned bool
	doneStep  int
}

// pieceMeta maps an engine message id (emission index) back to its
// transfer, path, and retry provenance.
type pieceMeta struct {
	t        int32
	path     int16
	retry    bool
	rerouted bool
}

// retryEntry is one scheduled reroute, ordered by (step, seq) so heap
// order is total and replayable. prev is the failed attempt's path —
// the baseline for the reroute/retry distinction.
type retryEntry struct {
	step int
	seq  int
	t    int32
	path int16
	prev int16
}

// before is the heap order: step, then seq. seq is unique per session,
// so the order is total and the pop sequence is fixed.
func (a retryEntry) before(b retryEntry) bool {
	if a.step != b.step {
		return a.step < b.step
	}
	return a.seq < b.seq
}

// retryHeap is a binary min-heap of retry entries, typed so that a push
// or pop moves entries in place instead of boxing one in an interface
// value; a warm push-and-pop pair allocates nothing.
type retryHeap []retryEntry

// push adds x, sifting it up from the last leaf.
func (h *retryHeap) push(x retryEntry) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
	*h = q
}

// pop removes and returns the least entry; the heap must be non-empty.
// The last leaf moves to the root and sifts down.
func (h *retryHeap) pop() retryEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = x
	}
	*h = q
	return top
}

// bundle is one guest edge's path group: template ids in path order
// plus the strategy-resolved piece counts.
type bundle struct {
	group  []int32
	k      int // pieces needed to complete
	pieces int // pieces injected at arrival (Reroute 1, IDA width)
}

// session is the run state: ArrivalSource and FaultListener in one.
type session struct {
	cfg     *Config
	backoff Backoff
	tmpls   []*netsim.Message
	bundles []bundle

	base   []netsim.Arrival
	baseAt int

	// Mid-expansion state: the transfer whose pieces are being
	// emitted (IDA injects one arrival per path), or expT = -1.
	expT    int32
	expNext int
	expStep int

	lastEmitted int
	seq         int
	rq          retryHeap

	transfers []transfer
	meta      []pieceMeta
	dead      map[int]bool
}

// Send runs one self-healing open-loop session: each arrival in the
// trace starts one transfer on the path bundle of guest edge
// edges[a.Tmpl] of the embedding (edges nil means a.Tmpl indexes
// e.Paths directly). Arrivals must have nondecreasing, nonnegative
// steps. The aggregate Report is identical for every Config.Shards
// value.
func Send(e *core.Embedding, edges []int, arrivals *netsim.Trace, cfg Config) (*Report, error) {
	if cfg.Flits < 1 {
		cfg.Flits = 1
	}
	tmpls, groups, err := traffic.PathTemplates(e, edges, 1)
	if err != nil {
		return nil, err
	}
	s := &session{
		cfg:     &cfg,
		backoff: cfg.Backoff,
		tmpls:   tmpls,
		bundles: make([]bundle, len(groups)),
		base:    arrivals.Arrivals,
		expT:    -1,
		dead:    make(map[int]bool),
	}
	if s.backoff == nil {
		s.backoff = FixedBackoff{Steps: 1}
	}
	for b, group := range groups {
		width := len(group)
		if width == 0 {
			return nil, fmt.Errorf("selfheal: bundle %d has no paths", b)
		}
		bu := bundle{group: group, k: 1, pieces: 1}
		if cfg.Strategy == IDA {
			k := cfg.K
			if k < 1 {
				k = 1
			}
			if k > width {
				k = width
			}
			bu.k, bu.pieces = k, width
			piece := (cfg.Flits + k - 1) / k
			for _, ti := range group {
				tmpls[ti].Flits = piece
			}
		} else {
			for _, ti := range group {
				tmpls[ti].Flits = cfg.Flits
			}
		}
		s.bundles[b] = bu
	}
	last := 0
	for i, a := range s.base {
		if a.Step < 0 || a.Step < last {
			return nil, fmt.Errorf("selfheal: arrival %d: steps must be nonnegative and nondecreasing (step %d after %d)", i, a.Step, last)
		}
		last = a.Step
		if a.Tmpl < 0 || int(a.Tmpl) >= len(s.bundles) {
			return nil, fmt.Errorf("selfheal: arrival %d names bundle %d of %d", i, a.Tmpl, len(s.bundles))
		}
	}

	opts := netsim.OpenLoopOpts{
		Mode:       cfg.Mode,
		Faults:     cfg.Faults,
		StepLimit:  cfg.StepLimit,
		PerMessage: s.perMessage,
		Probe:      cfg.Probe,
		Listener:   s,
	}
	olr, err := netsim.SimulateOpenLoopSharded(tmpls, s, opts, cfg.Shards)
	if err != nil {
		return nil, err
	}
	return s.finalize(olr), nil
}

// Next implements netsim.ArrivalSource: merge the base trace with the
// retry queue into one nondecreasing arrival stream. A retry whose
// nominal step has already passed relative to the last emission is
// clamped forward to keep the stream monotone (the engine re-polls
// after this step's failures, so the clamp only fires when a backoff
// of 0 lands on the current step after later arrivals already went
// out — the piece is injected at the earliest legal step).
func (s *session) Next() (netsim.Arrival, bool) {
	for {
		if s.expT >= 0 {
			return s.emitPiece(), true
		}
		baseStep, retryStep := math.MaxInt, math.MaxInt
		if s.baseAt < len(s.base) {
			baseStep = s.base[s.baseAt].Step
		}
		if len(s.rq) > 0 {
			retryStep = s.rq[0].step
			if retryStep < s.lastEmitted {
				retryStep = s.lastEmitted
			}
		}
		if baseStep == math.MaxInt && retryStep == math.MaxInt {
			return netsim.Arrival{}, false
		}
		if baseStep <= retryStep {
			a := s.base[s.baseAt]
			s.baseAt++
			s.newTransfer(a)
			return s.emitPiece(), true
		}
		re := s.rq.pop()
		tr := &s.transfers[re.t]
		path := int(re.path)
		if s.pathDead(&s.bundles[tr.bundle], path) {
			// The chosen sibling died while the retry waited; steer to
			// the next survivor, or give up.
			np := s.nextPath(&s.bundles[tr.bundle], path)
			if np < 0 {
				tr.done, tr.abandoned = true, true
				continue
			}
			path = np
		}
		tr.retries++
		s.lastEmitted = retryStep
		s.meta = append(s.meta, pieceMeta{
			t: re.t, path: int16(path), retry: true,
			rerouted: path != int(re.prev),
		})
		return netsim.Arrival{Step: retryStep, Tmpl: s.bundles[tr.bundle].group[path]}, true
	}
}

// newTransfer opens transfer state for a base arrival and arms the
// expansion emitter. Reroute picks the first path not known dead, so
// new traffic steers around observed failures from the start.
func (s *session) newTransfer(a netsim.Arrival) {
	b := &s.bundles[a.Tmpl]
	tr := transfer{bundle: a.Tmpl, arrival: a.Step, doneStep: -1}
	if s.cfg.Strategy != IDA {
		for j := range b.group {
			if !s.pathDead(b, j) {
				tr.firstPath = int16(j)
				break
			}
		}
	}
	s.expT = int32(len(s.transfers))
	s.expNext = 0
	s.expStep = a.Step
	s.transfers = append(s.transfers, tr)
}

// emitPiece emits the next piece of the transfer under expansion.
func (s *session) emitPiece() netsim.Arrival {
	tr := &s.transfers[s.expT]
	b := &s.bundles[tr.bundle]
	path := int(tr.firstPath)
	if s.cfg.Strategy == IDA {
		path = s.expNext
	}
	s.meta = append(s.meta, pieceMeta{t: s.expT, path: int16(path)})
	s.expNext++
	if s.expNext >= b.pieces {
		s.expT = -1
	}
	s.lastEmitted = s.expStep
	return netsim.Arrival{Step: s.expStep, Tmpl: b.group[path]}
}

// LinkDown implements netsim.FaultListener: record the dead link so
// path cycling and new transfers avoid it.
func (s *session) LinkDown(step, link int, permanent bool) {
	if permanent {
		s.dead[link] = true
	}
}

// MsgFailed implements netsim.FaultListener: blame the link, then
// decide the failed piece's fate — reroute after backoff (Reroute) or
// pure loss accounting (IDA). link -1 is the StepLimit sweep: the run
// is over, nothing to schedule.
func (s *session) MsgFailed(step int, msg int32, link int) {
	if link >= 0 {
		s.dead[link] = true
	}
	m := s.meta[msg]
	tr := &s.transfers[m.t]
	if tr.done {
		return
	}
	b := &s.bundles[tr.bundle]
	if s.cfg.Strategy == IDA {
		tr.failed++
		if b.pieces-tr.failed < b.k {
			tr.done, tr.abandoned = true, true
		}
		return
	}
	if link < 0 {
		return
	}
	if tr.attempt >= s.cfg.MaxRetries {
		tr.done, tr.abandoned = true, true
		return
	}
	next := s.nextPath(b, int(m.path))
	if next < 0 {
		tr.done, tr.abandoned = true, true
		return
	}
	tr.attempt++
	delay := s.backoff.Delay(tr.attempt, m.t)
	if delay < 0 {
		delay = 0
	}
	rstep := step + delay
	if s.cfg.Deadline > 0 && rstep > tr.arrival+s.cfg.Deadline {
		tr.done, tr.abandoned = true, true
		return
	}
	s.rq.push(retryEntry{step: rstep, seq: s.seq, t: m.t, path: int16(next), prev: m.path})
	s.seq++
}

// perMessage is the engine's PerMessage callback: fold deliveries into
// transfer completion (failures arrive via MsgFailed with the blamed
// link attached).
func (s *session) perMessage(msg int32, arrival, done int, delivered bool) {
	if !delivered {
		return
	}
	m := s.meta[msg]
	tr := &s.transfers[m.t]
	tr.delivered++
	if tr.done || tr.delivered < s.bundles[tr.bundle].k {
		return
	}
	tr.done, tr.ok = true, true
	tr.doneStep = done
	lat := done - tr.arrival
	if tr.arrival >= s.cfg.MeasureAfter {
		if s.cfg.Sink != nil {
			s.cfg.Sink.Observe(lat)
		}
		if s.cfg.RepairedSink != nil && tr.retries > 0 {
			s.cfg.RepairedSink.Observe(lat)
		}
	}
	if s.cfg.PerTransfer != nil {
		s.cfg.PerTransfer(m.t, tr.arrival, done, true, tr.retries)
	}
}

// nextPath returns the next path after `from` in cyclic order whose
// links are not known dead, or -1 when no sibling survives. The failed
// path itself always contains the freshly blamed link, so a retry
// never reuses it.
func (s *session) nextPath(b *bundle, from int) int {
	w := len(b.group)
	for i := 1; i <= w; i++ {
		j := (from + i) % w
		if !s.pathDead(b, j) {
			return j
		}
	}
	return -1
}

// pathDead reports whether any link of bundle path j is known dead.
func (s *session) pathDead(b *bundle, j int) bool {
	for _, id := range s.tmpls[b.group[j]].Route {
		if s.dead[int(id)] {
			return true
		}
	}
	return false
}

// finalize folds the session state and the engine result into a
// Report. Retries/Reroutes are recounted over the *injected* prefix of
// the emission log (the engine pulls one arrival ahead, so the last
// emission may never have entered the run).
func (s *session) finalize(olr *netsim.OpenLoopResult) *Report {
	rep := &Report{Transfers: len(s.transfers), Engine: *olr, DeadLinks: len(s.dead)}
	for t := range s.transfers {
		tr := &s.transfers[t]
		if tr.ok {
			rep.Delivered++
		} else {
			if tr.abandoned {
				rep.Abandoned++
			}
			if s.cfg.PerTransfer != nil {
				s.cfg.PerTransfer(int32(t), tr.arrival, -1, false, tr.retries)
			}
		}
		if s.cfg.Deadline > 0 && (!tr.ok || tr.doneStep-tr.arrival > s.cfg.Deadline) {
			rep.DeadlineMisses++
		}
	}
	for _, m := range s.meta[:olr.Injected] {
		if m.retry {
			rep.Retries++
			if m.rerouted {
				rep.Reroutes++
			}
		}
	}
	if rep.Transfers > 0 {
		rep.DeliveredFraction = float64(rep.Delivered) / float64(rep.Transfers)
		rep.DeadlineMissFraction = float64(rep.DeadlineMisses) / float64(rep.Transfers)
	}
	return rep
}
