// Fault-tolerant transmission (§1): Rabin's Information Dispersal
// Algorithm run across the edge-disjoint paths of a multiple-path
// embedding. A width-5 embedding with threshold 3 delivers every
// message as long as at most two of an edge's five paths hit a faulty
// link — and because the paths are edge-disjoint, independent link
// faults rarely kill more than one.
//
// Part 1 checks path survival combinatorially (FaultTolerantSend).
// Part 2 sends the same traffic through the self-healing open-loop
// simulator (SelfHealSend) on the same fault draw, every edge at step 0,
// and measures end-to-end latency. IDA never retries, so it delivers
// exactly the edges part 1 counted, and its pieces of ⌈M/k⌉ flits
// pipeline in parallel, so it finishes sooner. A single path with one
// reroute onto a surviving sibling delivers at least as much here, but
// is slower.
package main

import (
	"bytes"
	"fmt"
	"log"

	"multipath"
)

func main() {
	e, err := multipath.CycleWidthEmbedding(8)
	if err != nil {
		log.Fatal(err)
	}
	w, err := e.Width()
	if err != nil {
		log.Fatal(err)
	}
	const threshold = 3
	fmt.Printf("width-%d embedding on Q_8, IDA threshold %d (tolerates %d dead paths per edge)\n\n",
		w, threshold, w-threshold)

	payload := []byte("Greenberg & Bhatt, Routing Multiple Paths in Hypercubes, SPAA 1990")

	fmt.Println("-- combinatorial check: do k of n paths survive? --")
	fmt.Println("fault-prob  faulty-links  delivered  overhead")
	probs := []float64{0.0, 0.01, 0.03, 0.06, 0.10}
	survived := make([]int, len(probs))
	for i, p := range probs {
		faults := multipath.NewFaultModel(e.Host.DirectedEdges(), p, 2026)
		delivered, total := 0, len(e.Paths)
		for edge := 0; edge < total; edge++ {
			rep, data, err := multipath.FaultTolerantSend(e, edge, payload, threshold, faults)
			if err != nil {
				log.Fatal(err)
			}
			if rep.Delivered {
				if !bytes.Equal(data, payload) {
					log.Fatal("reconstruction corrupted payload")
				}
				delivered++
			}
		}
		// IDA ships n/k times the payload in total.
		overhead := float64(w) / float64(threshold)
		fmt.Printf("%9.2f  %12d  %5d/%3d  %.2fx bytes\n",
			p, faults.FaultyCount(), delivered, total, overhead)
		survived[i] = delivered
	}

	fmt.Println("\n-- simulated: 8-flit payloads, every edge sending at step 0 --")
	fmt.Println("fault-prob  strategy     delivered  mean-latency  retries")
	trace := &multipath.ArrivalTrace{}
	for edge := range e.Paths {
		trace.Arrivals = append(trace.Arrivals, multipath.Arrival{Tmpl: int32(edge)})
	}
	for i, p := range probs {
		sched := multipath.BernoulliFaults(e.Host.DirectedEdges(), p, 2026)
		for _, strat := range []struct {
			name string
			cfg  multipath.SelfHealConfig
		}{
			{"single-path", multipath.SelfHealConfig{Strategy: multipath.RerouteSelfHeal, MaxRetries: 1}},
			{"ida k=3", multipath.SelfHealConfig{Strategy: multipath.IDASelfHeal, K: threshold}},
		} {
			lat := &meanSink{}
			cfg := strat.cfg
			cfg.Mode = multipath.CutThrough
			cfg.Flits = 8
			cfg.Faults = sched
			cfg.Sink = lat
			rep, err := multipath.SelfHealSend(e, nil, trace, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%9.2f  %-11s  %9.3f  %7.1f steps  %7d\n",
				p, strat.name, rep.DeliveredFraction, lat.mean(), rep.Retries)
			// The same seed draws the same dead links as part 1, and IDA
			// never retries, so it lands exactly where k paths survive.
			if cfg.Strategy == multipath.IDASelfHeal && rep.Delivered != survived[i] {
				log.Fatalf("p=%.2f: simulated IDA delivered %d edges, the path check %d",
					p, rep.Delivered, survived[i])
			}
		}
	}

	fmt.Println("\nEach piece is 1/3 of the payload; any 3 of the 5 pieces rebuild it.")
	fmt.Println("Simulated IDA never retries, so it delivered exactly the edges the path check")
	fmt.Println("counted, and its 3-flit pieces pipeline in parallel: it finishes sooner than")
	fmt.Println("the single path, which delivers at least as many edges by rerouting once")
	fmt.Println("around the dead links the run has seen.")
}

// meanSink averages the latencies of the delivered transfers.
type meanSink struct{ sum, n int }

func (m *meanSink) Observe(v int) { m.sum, m.n = m.sum+v, m.n+1 }

func (m *meanSink) mean() float64 {
	if m.n == 0 {
		return -1
	}
	return float64(m.sum) / float64(m.n)
}
