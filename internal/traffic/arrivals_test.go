package traffic

import (
	"math"
	"reflect"
	"testing"

	"multipath/internal/cycles"
	"multipath/internal/netsim"
)

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a, err := PoissonArrivals(7, 0.25, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonArrivals(7, 0.25, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := PoissonArrivals(8, 0.25, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPoissonArrivalsShape(t *testing.T) {
	const rate, count = 0.1, 20000
	tr, err := PoissonArrivals(3, rate, count, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) != count {
		t.Fatalf("got %d arrivals, want %d", len(tr.Arrivals), count)
	}
	prev := 0
	for i, a := range tr.Arrivals {
		if a.Step < prev {
			t.Fatalf("arrival %d: step %d after %d", i, a.Step, prev)
		}
		prev = a.Step
		if a.Tmpl < 0 || a.Tmpl >= 4 {
			t.Fatalf("arrival %d: template %d out of range", i, a.Tmpl)
		}
	}
	// The empirical rate should be near the requested one.
	got := float64(count) / float64(tr.Arrivals[count-1].Step)
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("empirical rate %v, want ≈%v", got, rate)
	}
}

func TestMMPPArrivals(t *testing.T) {
	const low, high, dwell, count = 0.01, 1.0, 500.0, 20000
	a, err := MMPPArrivals(11, low, high, dwell, count, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MMPPArrivals(11, low, high, dwell, count, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a.Arrivals) != count {
		t.Fatalf("got %d arrivals, want %d", len(a.Arrivals), count)
	}
	prev := 0
	for i, ar := range a.Arrivals {
		if ar.Step < prev {
			t.Fatalf("arrival %d: step %d after %d", i, ar.Step, prev)
		}
		prev = ar.Step
		if ar.Tmpl < 0 || ar.Tmpl >= 3 {
			t.Fatalf("arrival %d: template %d out of range", i, ar.Tmpl)
		}
	}
	// The modulated rate sits strictly between the two phase rates, and
	// the process is burstier than a Poisson process of the same mean:
	// the phases spend about equal time, so arrivals concentrate in the
	// high phase and the empirical rate lands near high/2 ≫ low.
	mean := float64(count) / float64(a.Arrivals[count-1].Step)
	if mean <= low || mean >= high {
		t.Fatalf("empirical rate %v outside (%v, %v)", mean, low, high)
	}
	// Burstiness: the fraction of same-or-adjacent-step gaps is far
	// higher than a Poisson process at the mean rate would give.
	short := 0
	for i := 1; i < count; i++ {
		if a.Arrivals[i].Step-a.Arrivals[i-1].Step <= 1 {
			short++
		}
	}
	poisson, err := PoissonArrivals(11, mean, count, 3)
	if err != nil {
		t.Fatal(err)
	}
	pshort := 0
	for i := 1; i < count; i++ {
		if poisson.Arrivals[i].Step-poisson.Arrivals[i-1].Step <= 1 {
			pshort++
		}
	}
	if short <= pshort {
		t.Fatalf("MMPP not burstier than Poisson at same mean: %d vs %d short gaps", short, pshort)
	}
}

func TestParetoArrivals(t *testing.T) {
	const alpha, scale, count = 1.2, 1.0, 20000
	a, err := ParetoArrivals(13, alpha, scale, count, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParetoArrivals(13, alpha, scale, count, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := ParetoArrivals(14, alpha, scale, count, 5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	if len(a.Arrivals) != count {
		t.Fatalf("got %d arrivals, want %d", len(a.Arrivals), count)
	}
	prev := 0
	for i, ar := range a.Arrivals {
		if ar.Step < prev {
			t.Fatalf("arrival %d: step %d after %d", i, ar.Step, prev)
		}
		prev = ar.Step
		if ar.Tmpl < 0 || ar.Tmpl >= 5 {
			t.Fatalf("arrival %d: template %d out of range", i, ar.Tmpl)
		}
	}
	// Heavy tail: with alpha 1.2 the mean gap is scale·alpha/(alpha-1)
	// = 6, but the largest single gap dwarfs it — a power-law tail over
	// 20000 draws reliably produces a gap hundreds of times the mean,
	// which an exponential distribution essentially never does (the
	// largest of n exponential draws concentrates near mean·ln n ≈ 10
	// means).
	maxGap, sum := 0, 0
	for i := 1; i < count; i++ {
		g := a.Arrivals[i].Step - a.Arrivals[i-1].Step
		sum += g
		if g > maxGap {
			maxGap = g
		}
	}
	meanGap := float64(sum) / float64(count-1)
	if float64(maxGap) < 50*meanGap {
		t.Fatalf("tail too light: max gap %d vs mean %v", maxGap, meanGap)
	}
	// And every continuous gap is at least scale, so after flooring no
	// step can host more than a couple of arrivals.
	if meanGap < scale {
		t.Fatalf("mean gap %v below the scale floor %v", meanGap, scale)
	}
}

func TestLogNormalArrivals(t *testing.T) {
	const mu, sigma, count = 1.0, 2.0, 20000
	a, err := LogNormalArrivals(17, mu, sigma, count, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LogNormalArrivals(17, mu, sigma, count, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if len(a.Arrivals) != count {
		t.Fatalf("got %d arrivals, want %d", len(a.Arrivals), count)
	}
	prev := 0
	for i, ar := range a.Arrivals {
		if ar.Step < prev {
			t.Fatalf("arrival %d: step %d after %d", i, ar.Step, prev)
		}
		prev = ar.Step
		if ar.Tmpl < 0 || ar.Tmpl >= 4 {
			t.Fatalf("arrival %d: template %d out of range", i, ar.Tmpl)
		}
	}
	// With sigma 2 the distribution is strongly right-skewed: the mean
	// gap exp(mu+sigma²/2) ≈ 20 sits far above the median exp(mu) ≈ e,
	// so well over half the gaps land below the empirical mean.
	sum := 0
	for i := 1; i < count; i++ {
		sum += a.Arrivals[i].Step - a.Arrivals[i-1].Step
	}
	meanGap := float64(sum) / float64(count-1)
	below := 0
	for i := 1; i < count; i++ {
		if float64(a.Arrivals[i].Step-a.Arrivals[i-1].Step) < meanGap {
			below++
		}
	}
	if frac := float64(below) / float64(count-1); frac < 0.65 {
		t.Fatalf("not right-skewed: only %v of gaps below the mean", frac)
	}
	// sigma 0 degenerates to a deterministic clock with gap exp(mu).
	det, err := LogNormalArrivals(17, 2.0, 0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		if g := det.Arrivals[i].Step - det.Arrivals[i-1].Step; g < 7 || g > 8 {
			t.Fatalf("sigma 0: gap %d, want the deterministic exp(2) ≈ 7.39 floored", g)
		}
	}
}

func TestArrivalErrors(t *testing.T) {
	if _, err := PoissonArrivals(1, 0, 10, 2); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := PoissonArrivals(1, -0.5, 10, 2); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := PoissonArrivals(1, 0.5, -1, 2); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := PoissonArrivals(1, 0.5, 10, 0); err == nil {
		t.Error("zero templates accepted with positive count")
	}
	if tr, err := PoissonArrivals(1, 0.5, 0, 0); err != nil || len(tr.Arrivals) != 0 {
		t.Errorf("empty request should succeed: %v, %v", tr, err)
	}
	if _, err := ParetoArrivals(1, 0, 1, 10, 2); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := ParetoArrivals(1, 1.5, 0, 10, 2); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := ParetoArrivals(1, 1.5, 1, -1, 2); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := ParetoArrivals(1, 1.5, 1, 10, 0); err == nil {
		t.Error("zero templates accepted with positive count")
	}
	if _, err := LogNormalArrivals(1, 0, -0.1, 10, 2); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := LogNormalArrivals(1, 0, 1, -1, 2); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := LogNormalArrivals(1, 0, 1, 10, 0); err == nil {
		t.Error("zero templates accepted with positive count")
	}
	if _, err := MMPPArrivals(1, 0, 1, 10, 10, 2); err == nil {
		t.Error("zero low rate accepted")
	}
	if _, err := MMPPArrivals(1, 1, -1, 10, 10, 2); err == nil {
		t.Error("negative high rate accepted")
	}
	if _, err := MMPPArrivals(1, 1, 2, 0, 10, 2); err == nil {
		t.Error("zero dwell accepted")
	}
	if _, err := MMPPArrivals(1, 1, 2, 10, -1, 2); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := MMPPArrivals(1, 1, 2, 10, 10, 0); err == nil {
		t.Error("zero templates accepted with positive count")
	}
	// NaN parameters, and running times past the last int step, used to
	// return traces of negative steps with a nil error.
	nan := math.NaN()
	for name, draw := range map[string]func() (*netsim.Trace, error){
		"Poisson NaN rate":   func() (*netsim.Trace, error) { return PoissonArrivals(1, nan, 10, 1) },
		"Poisson tiny rate":  func() (*netsim.Trace, error) { return PoissonArrivals(1, 1e-300, 10, 1) },
		"Pareto tiny alpha":  func() (*netsim.Trace, error) { return ParetoArrivals(1, 0.01, 1, 5000, 1) },
		"log-normal huge mu": func() (*netsim.Trace, error) { return LogNormalArrivals(1, 800, 0, 10, 1) },
		"log-normal NaN mu":  func() (*netsim.Trace, error) { return LogNormalArrivals(1, nan, 0, 10, 1) },
		"MMPP NaN low rate":  func() (*netsim.Trace, error) { return MMPPArrivals(1, nan, 1, 10, 10, 1) },
	} {
		if tr, err := draw(); err == nil {
			t.Errorf("%s accepted: first step %d", name, tr.Arrivals[0].Step)
		}
	}
}

// TestArrivalsDriveOpenLoop closes the loop end to end: a Poisson
// trace over Theorem 1 width-path templates runs through the open-loop
// engine, delivers everything, and matches the naive golden model.
func TestArrivalsDriveOpenLoop(t *testing.T) {
	emb, err := cycles.Theorem1(6)
	if err != nil {
		t.Fatal(err)
	}
	tmpls, err := WidthPathMessages(emb, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PoissonArrivals(5, 0.05, 300, len(tmpls))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := netsim.SimulateOpenLoop(tmpls, tr.Source(), netsim.OpenLoopOpts{Mode: netsim.CutThrough})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := netsim.SimulateOpenLoopReference(tmpls, tr.Source(), netsim.OpenLoopOpts{Mode: netsim.CutThrough})
	if err != nil {
		t.Fatal(err)
	}
	cmp := *opt
	cmp.SkippedSteps = 0
	if !reflect.DeepEqual(&cmp, ref) {
		t.Fatalf("engine %+v != reference %+v", cmp, *ref)
	}
	if opt.Injected != 300 || opt.DeliveredMsgs != 300 {
		t.Fatalf("injected %d delivered %d, want 300/300", opt.Injected, opt.DeliveredMsgs)
	}
	if opt.SkippedSteps == 0 {
		t.Fatal("low-rate Poisson trace should have quiescent gaps to leap over")
	}
}
