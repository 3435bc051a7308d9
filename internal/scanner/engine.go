package scanner

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is a worker-pool driver for job campaigns: it fans N jobs out
// over a configurable number of workers, with context cancellation and
// live progress counters. Nothing in the product runs it, or Progress:
// the in-process scan is a loop (Scan) and the live one runs on
// dnsclient.Pipeline's Sweep, which paces it and counts for it too. Both
// are kept for the benchmark module's scanner.engine_job_ns row until
// ROADMAP item 1(d) deletes them.
//
// Jobs are not handed out, they are claimed: the workers share one
// atomic counter and each takes the next index from it, so a job costs
// an atomic add rather than a channel rendezvous with a feeder
// goroutine, and Run starts no goroutine but its workers.
type Engine struct {
	// Concurrency is the number of jobs in flight (default 1 = serial).
	Concurrency int
	// Progress, when non-nil, receives live counters.
	Progress *Progress
}

// Run executes jobs 0..n-1 across the worker pool: every index at most
// once, and none handed out after ctx is cancelled (a worker re-checks
// ctx before each claim). Job errors are counted in Progress but do not
// stop the run; the only returned error is ctx's, when the run was
// cancelled before completing.
func (e *Engine) Run(ctx context.Context, n int, job func(ctx context.Context, i int) error) error {
	workers := e.Concurrency
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64 // jobs claimed so far
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if e.Progress != nil {
					e.Progress.sent.Add(1)
				}
				if err := job(ctx, i); err != nil {
					if e.Progress != nil {
						e.Progress.errors.Add(1)
					}
				} else if e.Progress != nil {
					e.Progress.done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Progress holds live campaign counters, safe for concurrent use.
type Progress struct {
	start              time.Time
	sent, done, errors atomic.Int64
}

// NewProgress starts the campaign clock.
func NewProgress() *Progress {
	return &Progress{start: time.Now()}
}
