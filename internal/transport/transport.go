// Package transport sends guest-edge payloads through the fault-aware
// network simulator and measures what the combinatorial check in
// internal/ida only predicts: delivered fraction AND end-to-end latency
// under link faults, with bounded retries failing over onto surviving
// disjoint paths.
//
// Two strategies are compared:
//
//   - SinglePath: the whole payload travels one path; on failure a
//     retry round resends it on the next surviving path.
//   - IDA: the payload is cut into one piece per disjoint path (k of n
//     needed, Rabin's dispersal); a retry round resends only the
//     missing pieces, round-robin over surviving paths.
//
// Each round is one netsim.SimulateFaults run over every unfinished
// edge's messages together, so retried traffic contends realistically.
// The fault schedule's clock keeps running across rounds via
// FaultOpts.StepOffset: a transient outage that outlives round 1 is
// still in force when round 2 starts.
package transport

import (
	"fmt"
	"sort"

	"multipath/internal/core"
	"multipath/internal/faults"
	"multipath/internal/netsim"
)

// Strategy selects how a guest edge's payload is spread over its
// disjoint paths.
type Strategy int

const (
	// SinglePath sends the whole payload on one path at a time.
	SinglePath Strategy = iota
	// IDA disperses the payload k-of-n over all disjoint paths.
	IDA
)

func (s Strategy) String() string {
	switch s {
	case SinglePath:
		return "single-path"
	case IDA:
		return "ida"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterizes a transfer.
type Config struct {
	Strategy Strategy
	Mode     netsim.Mode
	// Flits is the payload size per guest edge in flits (default 1).
	// Under IDA each piece carries ceil(Flits/K) flits — dispersal's
	// n/k blowup in the paper's §1.
	Flits int
	// K is the IDA threshold: pieces needed to reconstruct. Clamped to
	// [1, width]. Ignored by SinglePath (always 1).
	K int
	// MaxRetries bounds the retry rounds after the first attempt.
	MaxRetries int
	// Deadline, when positive, is the per-edge completion budget in
	// absolute steps: an edge whose payload is not reconstructed by
	// step Deadline (late or never) counts as a deadline miss in the
	// Report. It does not change routing — transfers run to their
	// retry bound either way — it only classifies outcomes, matching
	// the self-healing session's Config.Deadline accounting.
	Deadline int
	// StepLimit caps each round's steps (a timeout). 0 derives the
	// livelock bound from the round's work; unbounded fault models
	// (faults.PerStep) then need an explicit limit.
	StepLimit int
	// Faults is the link-fault oracle shared with the simulator. Nil
	// means fault-free.
	Faults netsim.LinkFaults
	// Probe, when non-nil, observes every simulation round (it is passed
	// through as FaultOpts.Probe). Steps in probe events are round-
	// relative, so an obsv.Recorder attached here reads as per-round
	// latency distributions; use Report.RoundStats for the absolute
	// cross-round picture. Attaching a probe never changes the Report.
	Probe netsim.Probe
}

// EdgeReport is the per-guest-edge outcome.
type EdgeReport struct {
	Edge      int
	Delivered bool
	// Rounds is the number of simulation rounds this edge sent traffic
	// in (1 = no retries needed).
	Rounds int
	// Latency is the absolute step (across rounds) at which the K-th
	// piece arrived; -1 when the edge failed.
	Latency         int
	PiecesSent      int
	PiecesDelivered int
	// FailedPaths lists the path indices observed to fail, in the
	// order they were blamed.
	FailedPaths []int
}

// Report aggregates a transfer over many guest edges.
type Report struct {
	Strategy          Strategy
	Mode              netsim.Mode
	Edges             int
	DeliveredEdges    int
	DeliveredFraction float64
	// Rounds is the number of simulation rounds run (max over edges).
	Rounds int
	// TotalSteps is the summed step count of all rounds — the absolute
	// clock at the end of the run.
	TotalSteps int
	// MeanLatency averages EdgeReport.Latency over delivered edges.
	// It is -1 ("no data") when no edge was delivered: 0 is a real
	// latency (an empty-route edge delivers at step 0), so it cannot
	// double as the missing-value sentinel.
	MeanLatency     float64
	PiecesSent      int
	PiecesDelivered int
	// Retries is the number of pieces resent in retry rounds (rounds
	// after the first); Reroutes counts those that failed over onto a
	// different path than the piece's first-round one — the closed-loop
	// mirror of the self-healing Report's fields of the same names.
	Retries  int
	Reroutes int
	// DeadlineMisses counts edges (Config.Deadline > 0 only) whose
	// payload was not reconstructed within the deadline.
	DeadlineMisses int
	EdgeReports    []EdgeReport
	// RoundStats has one entry per simulation round actually run, in
	// order — the per-round delivered/latency series behind the
	// aggregate numbers above.
	RoundStats []RoundStat
}

// RoundStat summarizes one retry round of a transfer.
type RoundStat struct {
	// Round is the 1-based round number.
	Round int `json:"round"`
	// Sends is the number of pieces sent this round; Delivered how many
	// of them arrived.
	Sends     int `json:"sends"`
	Delivered int `json:"delivered"`
	// Steps is the round's own simulation step count; Offset the
	// absolute clock at the round's start (sum of prior rounds' steps).
	Steps  int `json:"steps"`
	Offset int `json:"offset"`
	// MeanLatency is the mean round-relative arrival step of the pieces
	// delivered this round, or -1 when none were.
	MeanLatency float64 `json:"mean_latency"`
}

// edgeState tracks one in-flight guest edge across rounds.
type edgeState struct {
	edge   int
	routes [][]int32 // per path: directed link ids, views of one arena
	n      int       // pieces (IDA: width; SinglePath: 1)
	k      int       // pieces needed
	flits  int       // flits per piece

	pieceStep  []int  // absolute arrival step per piece, -1 = not delivered
	badPath    []bool // paths observed to fail
	failed     []int  // blame order, for the report
	delivered  int
	piecesSent int
	rounds     int
	done       bool
	ok         bool
}

// pending are the (piece, path) sends queued for the current round.
type send struct {
	st    *edgeState
	piece int
	path  int
}

// SendAll routes one payload per guest edge of the embedding.
func SendAll(e *core.Embedding, cfg Config) (*Report, error) {
	edges := make([]int, len(e.Paths))
	for i := range edges {
		edges[i] = i
	}
	return SendEdges(e, edges, cfg)
}

// SendEdges routes one payload per listed guest edge, simulating all
// edges' traffic together round by round.
func SendEdges(e *core.Embedding, edges []int, cfg Config) (*Report, error) {
	flits := cfg.Flits
	if flits <= 0 {
		flits = 1
	}
	// Size one id arena for every listed path; each route is a capped
	// view of it. Invalid indices are skipped here and reported below.
	hops := 0
	for _, idx := range edges {
		if idx >= 0 && idx < len(e.Paths) {
			for _, p := range e.Paths[idx] {
				hops += max(len(p)-1, 0)
			}
		}
	}
	arena := make([]int32, hops)
	states := make([]*edgeState, 0, len(edges))
	for _, idx := range edges {
		if idx < 0 || idx >= len(e.Paths) {
			return nil, fmt.Errorf("transport: edge index %d out of range", idx)
		}
		paths := e.Paths[idx]
		if len(paths) == 0 {
			return nil, fmt.Errorf("transport: edge %d has no paths", idx)
		}
		st := &edgeState{edge: idx}
		for _, p := range paths {
			l := max(len(p)-1, 0)
			ids := arena[:l:l]
			arena = arena[l:]
			if err := e.Host.FillPathEdgeIDs32(ids, p); err != nil {
				return nil, fmt.Errorf("transport: edge %d: %w", idx, err)
			}
			st.routes = append(st.routes, ids)
		}
		width := len(st.routes)
		switch cfg.Strategy {
		case SinglePath:
			st.n, st.k, st.flits = 1, 1, flits
		case IDA:
			k := cfg.K
			if k <= 0 {
				k = 1
			}
			if k > width {
				k = width
			}
			st.n, st.k = width, k
			st.flits = (flits + k - 1) / k
		default:
			return nil, fmt.Errorf("transport: unknown strategy %v", cfg.Strategy)
		}
		st.pieceStep = make([]int, st.n)
		for i := range st.pieceStep {
			st.pieceStep[i] = -1
		}
		st.badPath = make([]bool, width)
		states = append(states, st)
	}

	rep := &Report{Strategy: cfg.Strategy, Mode: cfg.Mode, Edges: len(states)}
	maxRounds := 1 + cfg.MaxRetries
	for round := 1; round <= maxRounds; round++ {
		var sends []send
		for _, st := range states {
			if st.done {
				continue
			}
			plan := st.planRound(round == 1)
			if len(plan) == 0 {
				// No surviving path can carry a missing piece.
				st.done = true
				continue
			}
			st.rounds++
			sends = append(sends, plan...)
		}
		if len(sends) == 0 {
			break
		}
		msgs := make([]*netsim.Message, len(sends))
		for i, s := range sends {
			msgs[i] = &netsim.Message{Route: s.st.routes[s.path], Flits: s.st.flits}
			rep.PiecesSent++
			s.st.piecesSent++
			if round > 1 {
				// The first round sends piece j on path j, so any retry
				// on a different path is a failover reroute.
				rep.Retries++
				if s.path != s.piece {
					rep.Reroutes++
				}
			}
		}
		fr, err := netsim.SimulateFaults(msgs, cfg.Mode, netsim.FaultOpts{
			Faults:     cfg.Faults,
			StepLimit:  cfg.StepLimit,
			StepOffset: rep.TotalSteps,
			Probe:      cfg.Probe,
		})
		if err != nil {
			return nil, err
		}
		rs := RoundStat{Round: round, Sends: len(sends), Offset: rep.TotalSteps, MeanLatency: -1}
		latSteps := 0
		for i, o := range fr.Outcomes {
			s := sends[i]
			if o.Delivered {
				rep.PiecesDelivered++
				rs.Delivered++
				latSteps += o.Step
				s.st.deliverPiece(s.piece, rep.TotalSteps+o.Step)
			} else {
				s.st.blamePath(s.path)
			}
		}
		if rs.Delivered > 0 {
			rs.MeanLatency = float64(latSteps) / float64(rs.Delivered)
		}
		rs.Steps = fr.Steps
		rep.RoundStats = append(rep.RoundStats, rs)
		rep.TotalSteps += fr.Steps
		rep.Rounds = round
		for _, st := range states {
			if !st.done && st.delivered >= st.k {
				st.done, st.ok = true, true
			}
		}
	}

	var latSum int
	for _, st := range states {
		er := EdgeReport{
			Edge:            st.edge,
			Delivered:       st.ok,
			Rounds:          st.rounds,
			Latency:         -1,
			PiecesSent:      st.piecesSent,
			PiecesDelivered: st.delivered,
			FailedPaths:     st.failed,
		}
		if st.ok {
			er.Latency = st.latency()
			latSum += er.Latency
			rep.DeliveredEdges++
		}
		if cfg.Deadline > 0 && (!st.ok || er.Latency > cfg.Deadline) {
			rep.DeadlineMisses++
		}
		rep.EdgeReports = append(rep.EdgeReports, er)
	}
	if rep.Edges > 0 {
		rep.DeliveredFraction = float64(rep.DeliveredEdges) / float64(rep.Edges)
	}
	if rep.DeliveredEdges > 0 {
		rep.MeanLatency = float64(latSum) / float64(rep.DeliveredEdges)
	} else {
		rep.MeanLatency = -1
	}
	return rep, nil
}

// planRound picks the (piece, path) sends for one round. The first
// round sends every piece on its own path (piece j on path j;
// SinglePath sends its one piece on path 0). Retry rounds resend the
// missing pieces round-robin over the paths not yet observed bad, in
// path order — failover onto surviving disjoint paths.
func (st *edgeState) planRound(first bool) []send {
	if first {
		sends := make([]send, 0, st.n)
		for j := 0; j < st.n; j++ {
			sends = append(sends, send{st: st, piece: j, path: j})
		}
		return sends
	}
	var candidates []int
	for p := range st.badPath {
		if !st.badPath[p] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	needed := st.k - st.delivered
	var sends []send
	ci := 0
	for j := 0; j < st.n && len(sends) < needed; j++ {
		if st.pieceStep[j] >= 0 {
			continue
		}
		sends = append(sends, send{st: st, piece: j, path: candidates[ci]})
		ci = (ci + 1) % len(candidates)
	}
	return sends
}

func (st *edgeState) deliverPiece(piece, absStep int) {
	if st.pieceStep[piece] < 0 {
		st.pieceStep[piece] = absStep
		st.delivered++
	}
}

func (st *edgeState) blamePath(path int) {
	if !st.badPath[path] {
		st.badPath[path] = true
		st.failed = append(st.failed, path)
	}
}

// latency is the absolute step at which the k-th piece arrived.
func (st *edgeState) latency() int {
	steps := make([]int, 0, st.delivered)
	for _, s := range st.pieceStep {
		if s >= 0 {
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	return steps[st.k-1]
}

// BundleBurst builds a schedule that takes down every link on every
// disjoint path of one guest edge for [from, until) — the adversarial
// worst case for that edge's bundle, leaving the rest of the network
// untouched.
func BundleBurst(e *core.Embedding, edgeIdx, from, until int) (*faults.Schedule, error) {
	if edgeIdx < 0 || edgeIdx >= len(e.Paths) {
		return nil, fmt.Errorf("transport: edge index %d out of range", edgeIdx)
	}
	s := faults.NewSchedule()
	for _, p := range e.Paths[edgeIdx] {
		ids, err := e.Host.PathEdgeIDs(p)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if until <= 0 {
				s.FailLink(id, from)
			} else {
				s.FailLinkTransient(id, from, until)
			}
		}
	}
	return s, nil
}
