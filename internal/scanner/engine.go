package scanner

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is a worker-pool driver for job campaigns: it fans N jobs out
// over a configurable number of workers, with context cancellation and
// live progress counters. Nothing in the product runs it: the in-process
// scan is a loop (Scan) and the live one runs on dnsclient.Pipeline's
// Sweep. It is kept for the benchmark module's scanner.engine_job_ns row
// until ROADMAP item 1(d) deletes it.
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

// RateLimiter is a token bucket: Wait blocks until a token is available
// or the context ends. It is safe for concurrent use.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewRateLimiter allows ratePerSec operations per second with the given
// burst (minimum 1).
func NewRateLimiter(ratePerSec float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:   ratePerSec,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// Wait consumes one token, sleeping until one accrues.
func (l *RateLimiter) Wait(ctx context.Context) error {
	for {
		l.mu.Lock()
		now := time.Now()
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = now
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			return nil
		}
		wait := time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
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

// ProgressSnapshot is a point-in-time view of a campaign.
type ProgressSnapshot struct {
	// Sent is how many jobs have started.
	Sent int64
	// Done is how many finished without error.
	Done int64
	// Errors is how many finished with an error.
	Errors int64
	// Elapsed is the time since NewProgress.
	Elapsed time.Duration
	// QPS is Sent/Elapsed, the observed throughput.
	QPS float64
}

// Snapshot reads the counters.
func (p *Progress) Snapshot() ProgressSnapshot {
	s := ProgressSnapshot{
		Sent:    p.sent.Load(),
		Done:    p.done.Load(),
		Errors:  p.errors.Load(),
		Elapsed: time.Since(p.start),
	}
	if s.Elapsed > 0 {
		s.QPS = float64(s.Sent) / s.Elapsed.Seconds()
	}
	return s
}
