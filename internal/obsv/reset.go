package obsv

// Reset clears the histogram's counts and summary statistics in place,
// keeping the allocated bucket slice. Width is preserved.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Over, h.N, h.Sum, h.Max = 0, 0, 0, 0
}

// Reset clears the series in place, keeping the allocated sample
// buffer: the stride returns to 1 and the next Add starts a fresh run.
func (s *Series) Reset() {
	s.samples = s.samples[:0]
	s.stride = 1
	s.acc, s.accN, s.n = 0, 0, 0
}

// Reset clears every collector and aggregate counter in place so the
// Recorder can be reattached for the next run — a load sweep reuses one
// Recorder per load point instead of allocating fresh histograms each
// time. The bucket slices, the busy-fraction buffer, and the per-run
// scratch keep their capacity; the per-link utilization map (if
// enabled) is emptied but its Series are rebuilt on demand, since the
// next run may cross a different link set.
func (r *Recorder) Reset() {
	r.FlitLatency.Reset()
	r.MsgLatency.Reset()
	r.QueueDepth.Reset()
	r.BusyFraction.Reset()
	r.Runs, r.Steps, r.Delivered, r.Failed = 0, 0, 0, 0
	r.Moved, r.Dropped = 0, 0
	clear(r.util)
	clear(r.lqSum)
	clear(r.lqN)
	clear(r.lqMax)
	r.lqSteps = 0
	r.ext = r.ext[:0]
	for i := range r.moved {
		r.moved[i] = 0
	}
}
