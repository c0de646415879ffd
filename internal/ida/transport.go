package ida

import (
	"fmt"

	"multipath/internal/core"
	"multipath/internal/faults"
	"multipath/internal/hypercube"
)

// FaultModel is the combinatorial (static) fault view used by
// FaultTolerantSend: a link is faulty if it is ever down. It is a thin
// wrapper over faults.Schedule — the same schedule the simulator's
// fault-aware paths consume — so the path-survival check here and the
// self-healing transport in internal/selfheal share one fault source.
type FaultModel struct {
	sched *faults.Schedule
}

// NewFaultModel fails each directed link of the host independently
// with probability p, reproducibly from the seed (faults.Bernoulli:
// one uniform draw per link in id order, so for a fixed seed the
// faulty set is monotone in p).
func NewFaultModel(numLinks int, p float64, seed int64) *FaultModel {
	return &FaultModel{sched: faults.Bernoulli(numLinks, p, seed)}
}

// ModelOf wraps an existing schedule in the static view.
func ModelOf(s *faults.Schedule) *FaultModel {
	if s == nil {
		s = faults.NewSchedule()
	}
	return &FaultModel{sched: s}
}

// Schedule returns the underlying replayable schedule, for handing the
// same faults to the simulator.
func (f *FaultModel) Schedule() *faults.Schedule { return f.sched }

// FailLink marks one link permanently faulty (for targeted experiments).
func (f *FaultModel) FailLink(id int) { f.sched.FailLink(id, 1) }

// FaultyCount returns the number of distinct failed links.
func (f *FaultModel) FaultyCount() int { return f.sched.FaultyLinks() }

// PathOK reports whether a host path avoids all faulty links.
func (f *FaultModel) PathOK(e *core.Embedding, p core.Path) (bool, error) {
	ids, err := e.Host.PathEdgeIDs(p)
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		if f.sched.EverDown(id) {
			return false, nil
		}
	}
	return true, nil
}

// SendReport summarizes a fault-tolerant transfer over one guest edge.
type SendReport struct {
	Paths     int // disjoint paths available (n in Disperse)
	Survivors int // paths that avoided every faulty link
	Threshold int // k: pieces needed
	Delivered bool
}

// FaultTolerantSend disperses data into one piece per path of guest
// edge edgeIdx, drops the pieces whose path crosses a faulty link, and
// attempts reconstruction from the survivors. It returns the report
// and the reconstructed data (nil when delivery fails).
//
// This is the paper's §1 suggestion made concrete: because the paths
// are edge-disjoint, any f link faults kill at most f pieces, so a
// width-w embedding with threshold k tolerates w-k faults on the paths
// of any single edge.
//
// This check is purely combinatorial — pieces survive or die by path
// inspection, nothing is simulated. internal/selfheal's IDA strategy
// runs the same dispersal through the open-loop simulator and measures
// latency as well; under permanent faults it delivers exactly the edges
// this check passes.
func FaultTolerantSend(e *core.Embedding, edgeIdx int, data []byte, k int, faults *FaultModel) (*SendReport, []byte, error) {
	if edgeIdx < 0 || edgeIdx >= len(e.Paths) {
		return nil, nil, fmt.Errorf("ida: edge index %d out of range", edgeIdx)
	}
	paths := e.Paths[edgeIdx]
	n := len(paths)
	pieces, err := Disperse(data, n, k)
	if err != nil {
		return nil, nil, err
	}
	var survivors []Piece
	for i, p := range paths {
		ok, err := faults.PathOK(e, p)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			survivors = append(survivors, pieces[i])
		}
	}
	rep := &SendReport{Paths: n, Survivors: len(survivors), Threshold: k}
	if len(survivors) < k {
		return rep, nil, nil
	}
	out, err := Reconstruct(survivors[:k], k, len(data))
	if err != nil {
		return nil, nil, err
	}
	rep.Delivered = true
	return rep, out, nil
}

// FailNode marks every directed link incident to node v as faulty — a
// node fault under the link-fault model. q's edge indexing must match
// the embeddings the model is used with.
func (f *FaultModel) FailNode(q *hypercube.Q, v hypercube.Node) {
	f.sched.FailNode(q, v, 1)
}
