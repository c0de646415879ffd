package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"multipath/internal/netsim"
)

// This file is the arrival layer for open-loop steady-state runs:
// deterministic, seeded stochastic processes that choose *when* a
// message enters the network and *which* route template it uses.
// Templates are whatever a message builder produced (WidthPathMessages,
// MultiCopyCCCMessages, ...); the processes here only pick indices into
// that set, uniformly at random, so the same builders serve closed- and
// open-loop experiments. Traces are materialized (netsim.Trace) rather
// than streamed so a run can be replayed bit-identically through both
// netsim.SimulateOpenLoop and its naive golden model.
//
// Every parameter must be a finite number: NaN passes no comparison
// and would otherwise flow into the running time unchecked. A trace
// whose running time reaches 2^63 steps, which no int step can hold, is
// an error naming the arrival that got there.

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// stepOf floors arrival i's running time t onto the integer step grid.
func stepOf(i int, t float64) (int, error) {
	if !(t < math.MaxInt) {
		return 0, fmt.Errorf("traffic: arrival %d falls at time %v, past the last representable step", i, t)
	}
	return int(t), nil
}

// PoissonArrivals draws count arrivals of a Poisson process with the
// given rate (expected arrivals per step), each naming one of ntmpl
// route templates uniformly. The same seed always yields the same
// trace. Inter-arrival gaps are exponential in continuous time and
// floored onto the integer step grid, so same-step bursts occur
// naturally when rate is high.
func PoissonArrivals(seed int64, rate float64, count, ntmpl int) (*netsim.Trace, error) {
	if !(rate > 0) || !finite(rate) {
		return nil, fmt.Errorf("traffic: Poisson rate must be positive and finite, got %v", rate)
	}
	if count < 0 {
		return nil, fmt.Errorf("traffic: arrival count must be nonnegative, got %d", count)
	}
	if count > 0 && ntmpl < 1 {
		return nil, fmt.Errorf("traffic: need at least one template, got %d", ntmpl)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, count)}
	t := 0.0
	for i := 0; i < count; i++ {
		t += rng.ExpFloat64() / rate
		step, err := stepOf(i, t)
		if err != nil {
			return nil, err
		}
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: step, Tmpl: int32(rng.Intn(ntmpl))})
	}
	return tr, nil
}

// ParetoArrivals draws count arrivals with Pareto-distributed
// inter-arrival gaps: gap = scale / U^(1/alpha) with U uniform on
// (0, 1], so every gap is at least scale and the tail decays as a
// power law with exponent alpha. Small alpha (≤ 2, and especially
// ≤ 1, where the mean gap is infinite) yields the self-similar
// traffic of measured networks — dense clusters of arrivals separated
// by occasional enormous quiet stretches that the open-loop engine
// leaps over. Gaps are floored onto the integer step grid; the same
// seed always yields the same trace.
func ParetoArrivals(seed int64, alpha, scale float64, count, ntmpl int) (*netsim.Trace, error) {
	if !(alpha > 0) || !finite(alpha) {
		return nil, fmt.Errorf("traffic: Pareto alpha must be positive and finite, got %v", alpha)
	}
	if !(scale > 0) || !finite(scale) {
		return nil, fmt.Errorf("traffic: Pareto scale must be positive and finite, got %v", scale)
	}
	if count < 0 {
		return nil, fmt.Errorf("traffic: arrival count must be nonnegative, got %d", count)
	}
	if count > 0 && ntmpl < 1 {
		return nil, fmt.Errorf("traffic: need at least one template, got %d", ntmpl)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, count)}
	t := 0.0
	for i := 0; i < count; i++ {
		// 1-Float64 is uniform on (0, 1]: it never hits zero, so the
		// inverse-CDF transform below cannot divide by zero.
		u := 1 - rng.Float64()
		t += scale / math.Pow(u, 1/alpha)
		step, err := stepOf(i, t)
		if err != nil {
			return nil, err
		}
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: step, Tmpl: int32(rng.Intn(ntmpl))})
	}
	return tr, nil
}

// LogNormalArrivals draws count arrivals with log-normally distributed
// inter-arrival gaps: gap = exp(mu + sigma·Z) with Z standard normal.
// The median gap is exp(mu); sigma controls the spread — sigma 0
// degenerates to a deterministic clock, while large sigma produces a
// heavy (subexponential) right tail of long quiet periods alongside
// bursts of near-simultaneous arrivals. Gaps are floored onto the
// integer step grid; the same seed always yields the same trace.
func LogNormalArrivals(seed int64, mu, sigma float64, count, ntmpl int) (*netsim.Trace, error) {
	if !finite(mu) {
		return nil, fmt.Errorf("traffic: log-normal mu must be finite, got %v", mu)
	}
	if !(sigma >= 0) || !finite(sigma) {
		return nil, fmt.Errorf("traffic: log-normal sigma must be nonnegative and finite, got %v", sigma)
	}
	if count < 0 {
		return nil, fmt.Errorf("traffic: arrival count must be nonnegative, got %d", count)
	}
	if count > 0 && ntmpl < 1 {
		return nil, fmt.Errorf("traffic: need at least one template, got %d", ntmpl)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, count)}
	t := 0.0
	for i := 0; i < count; i++ {
		t += math.Exp(mu + sigma*rng.NormFloat64())
		step, err := stepOf(i, t)
		if err != nil {
			return nil, err
		}
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: step, Tmpl: int32(rng.Intn(ntmpl))})
	}
	return tr, nil
}

// MMPPArrivals draws count arrivals of a two-state Markov-modulated
// Poisson process: the process dwells in a low-rate and a high-rate
// phase, each for an exponentially distributed time with mean
// meanDwell steps, and emits Poisson arrivals at the phase's rate.
// With lowRate ≪ highRate this produces the bursty traffic the
// single-rate process cannot: long quiet stretches (which the
// open-loop engine leaps over) punctuated by saturating bursts. The
// process starts in the low phase; the same seed always yields the
// same trace.
func MMPPArrivals(seed int64, lowRate, highRate, meanDwell float64, count, ntmpl int) (*netsim.Trace, error) {
	if !(lowRate > 0) || !(highRate > 0) || !finite(lowRate) || !finite(highRate) {
		return nil, fmt.Errorf("traffic: MMPP rates must be positive and finite, got %v and %v", lowRate, highRate)
	}
	if !(meanDwell > 0) || !finite(meanDwell) {
		return nil, fmt.Errorf("traffic: MMPP mean dwell must be positive and finite, got %v", meanDwell)
	}
	if count < 0 {
		return nil, fmt.Errorf("traffic: arrival count must be nonnegative, got %d", count)
	}
	if count > 0 && ntmpl < 1 {
		return nil, fmt.Errorf("traffic: need at least one template, got %d", ntmpl)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &netsim.Trace{Arrivals: make([]netsim.Arrival, 0, count)}
	rates := [2]float64{lowRate, highRate}
	phase := 0
	t := 0.0
	dwell := rng.ExpFloat64() * meanDwell // time left in the current phase
	for len(tr.Arrivals) < count {
		gap := rng.ExpFloat64() / rates[phase]
		if gap > dwell {
			// The phase ends before the next arrival would occur. By
			// memorylessness the arrival clock restarts in the new phase.
			t += dwell
			phase = 1 - phase
			dwell = rng.ExpFloat64() * meanDwell
			continue
		}
		t += gap
		dwell -= gap
		step, err := stepOf(len(tr.Arrivals), t)
		if err != nil {
			return nil, err
		}
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: step, Tmpl: int32(rng.Intn(ntmpl))})
	}
	return tr, nil
}
