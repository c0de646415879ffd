package obsv

import (
	"fmt"
	"math/rand"
	"testing"

	"multipath/internal/netsim"
)

// BenchmarkRecorderStepEnd times one LinkQueues Recorder StepEnd over a
// Q_16-sized run (16·2^16 links, identity external ids) in the two
// occupancy regimes the Recorder meets: about 2% of the links active
// per step, as in adaptive routing's feedback windows, and about 54%,
// as in a whole-cube Q_16 fault run, where the active list (in
// scattered enqueue order) visits most links anyway. The active links
// hold queues of 1 to 3 messages; nothing asserts on the numbers.
func BenchmarkRecorderStepEnd(b *testing.B) {
	const links = 16 << 16
	ext := make([]int, links)
	for l := range ext {
		ext[l] = l
	}
	for _, frac := range []float64{0.02, 0.54} {
		b.Run(fmt.Sprintf("active=%.0f%%", 100*frac), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			qlen := make([]int, links)
			var active []int32
			for l := range qlen {
				if rng.Float64() < frac {
					qlen[l] = 1 + rng.Intn(3)
					active = append(active, int32(l))
				}
			}
			rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
			r := NewRecorderOpts(RecorderOpts{LinkQueues: true})
			r.BeginRun(netsim.RunInfo{Messages: -1, Links: links, LinkExt: ext})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StepEnd(i+1, qlen, active)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(active)), "ns/active-link")
		})
	}
}
