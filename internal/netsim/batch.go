package netsim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// BatchJob is one independent simulation in a SimulateBatch call.
type BatchJob struct {
	Msgs []*Message
	Mode Mode
	// Shards, when > 1, runs this job through the partitioned engine
	// (SimulateSharded) with that many shard workers — for batches of
	// few huge jobs rather than many small ones. 0 or 1 runs one shard;
	// results are bit-identical either way. Negative values are
	// rejected by SimulateBatch.
	Shards int
}

// SimulateBatch runs independent simulations across GOMAXPROCS worker
// goroutines. Each job is SimulateSharded at its Shards count, on an
// Engine borrowed from the shared pool, so scratch buffers amortize
// across jobs. Workers take the jobs largest first — most messages
// first, ties by index — so the longest job starts at once rather than
// after the shorter ones listed before it. results[i] corresponds to
// jobs[i] regardless of scheduling, and every simulation is itself
// deterministic, so the output is identical to running the jobs
// serially. On failure the error names the lowest-indexed failing job;
// results for jobs that completed are still returned.
func SimulateBatch(jobs []BatchJob) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	for i := range jobs {
		if jobs[i].Shards < 0 {
			return results, fmt.Errorf("netsim: batch job %d: negative shard count %d", i, jobs[i].Shards)
		}
	}
	if len(jobs) == 0 {
		return results, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	order := batchOrder(jobs)
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				i := order[k]
				results[i], errs[i] = SimulateSharded(jobs[i].Msgs, jobs[i].Mode, jobs[i].Shards)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("netsim: batch job %d: %w", i, err)
		}
	}
	return results, nil
}

// batchOrder returns the job indices largest first: most messages
// first, ties by index.
func batchOrder(jobs []BatchJob) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(len(jobs[b].Msgs), len(jobs[a].Msgs))
	})
	return order
}
