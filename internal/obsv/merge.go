package obsv

import "fmt"

// This file is the aggregation side of sharded observation: the
// sharded netsim engine (netsim.SimulateShardedProbes) hands each
// shard its own Recorder so recording needs no cross-shard
// synchronization, and Merge folds the per-shard recordings back into
// the single-shard view after the run. Everything a Recorder keeps is
// either a counting structure (histograms, event counters — merged by
// summation, exactly) or a per-step mean over links (BusyFraction —
// merged as a link-count-weighted mean, exact up to floating-point
// association). TestRecorderMergeEqualsSingleShard pins merged ==
// single-shard.

// Merge folds a histogram over the same value space into h by bucket
// summation. The widths must match; differing bucket counts are
// reconciled by growing h.
func (h *Histogram) Merge(o *Histogram) error {
	if h.Width != o.Width {
		return fmt.Errorf("obsv: merging histograms of width %d and %d", h.Width, o.Width)
	}
	if n := len(o.Counts) - len(h.Counts); n > 0 {
		h.Counts = append(h.Counts, make([]uint64, n)...)
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Over += o.Over
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	return nil
}

// MergeWeighted replaces s's values with the ws:wo weighted mean of s
// and o, sample by sample. This is the merge rule for per-shard mean
// series whose global counterpart is a weighted mean of the shard
// values — a shard's busy fraction weighted by its link count yields
// the all-links busy fraction. Both series must have recorded the
// same number of steps at the same capacity (per-shard recorders of
// one run always have: every shard sees every step).
func (s *Series) MergeWeighted(o *Series, ws, wo float64) error {
	if s.n != o.n || s.stride != o.stride || len(s.samples) != len(o.samples) || s.accN != o.accN {
		return fmt.Errorf("obsv: merging misaligned series %v and %v", s, o)
	}
	if ws+wo <= 0 {
		return fmt.Errorf("obsv: non-positive series merge weight %g+%g", ws, wo)
	}
	inv := 1 / (ws + wo)
	for i := range s.samples {
		s.samples[i] = (ws*s.samples[i] + wo*o.samples[i]) * inv
	}
	// acc holds a sum over accN steps on both sides (same accN), so the
	// weighted mean of the partial windows is the weighted sum of accs.
	s.acc = (ws*s.acc + wo*o.acc) * inv
	return nil
}

// clone returns an independent copy of the series.
func (s *Series) clone() *Series {
	c := *s
	c.samples = append([]float64(nil), s.samples...)
	return &c
}

// Merge folds another Recorder's observations into r. It is meant for
// per-shard recorders of the *same* runs (each shard observes a
// disjoint link range but every step): histograms and event counters
// add up, Runs and Steps — which every shard counts in full — take
// the maximum, BusyFraction merges as a mean weighted by each
// recorder's queue-sample count (∝ its link count, since the step
// counts agree), and per-link utilization series union (link ids are
// external, hence globally unique across shards; a collision means
// the recorders observed overlapping links and is an error).
//
// Merging recorders built with different options fails rather than
// aggregating incomparable buckets. o is not modified; r is left
// partially merged on error.
func (r *Recorder) Merge(o *Recorder) error {
	// Capture the busy-fraction weights before QueueDepth is merged.
	wr, wo := float64(r.QueueDepth.N), float64(o.QueueDepth.N)
	if err := r.FlitLatency.Merge(o.FlitLatency); err != nil {
		return fmt.Errorf("flit latency: %w", err)
	}
	if err := r.MsgLatency.Merge(o.MsgLatency); err != nil {
		return fmt.Errorf("msg latency: %w", err)
	}
	if err := r.QueueDepth.Merge(o.QueueDepth); err != nil {
		return fmt.Errorf("queue depth: %w", err)
	}
	switch {
	case o.BusyFraction.Len() == 0:
		// Nothing to fold in (e.g. a clamped-away zero-link shard).
	case r.BusyFraction.Len() == 0:
		r.BusyFraction = o.BusyFraction.clone()
	default:
		if err := r.BusyFraction.MergeWeighted(o.BusyFraction, wr, wo); err != nil {
			return fmt.Errorf("busy fraction: %w", err)
		}
	}
	if o.Runs > r.Runs {
		r.Runs = o.Runs
	}
	if o.Steps > r.Steps {
		r.Steps = o.Steps
	}
	r.Delivered += o.Delivered
	r.Failed += o.Failed
	r.Moved += o.Moved
	r.Dropped += o.Dropped
	for id, s := range o.util {
		if r.util == nil {
			r.util = make(map[int]*Series, len(o.util))
		}
		if _, dup := r.util[id]; dup {
			return fmt.Errorf("both recorders tracked link %d; per-shard recorders observe disjoint links", id)
		}
		r.util[id] = s.clone()
	}
	// Per-link queue-depth accumulators are counting stats: elementwise
	// summation is exact whether the link sets are disjoint (per-shard
	// recorders) or overlapping (sequential runs of the same links).
	r.growLinkQueues(len(o.lqSum))
	for id := range o.lqSum {
		r.lqSum[id] += o.lqSum[id]
		r.lqN[id] += o.lqN[id]
		if o.lqMax[id] > r.lqMax[id] {
			r.lqMax[id] = o.lqMax[id]
		}
	}
	return nil
}
