package scanner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineRunsAllJobs is Run's contract on a run that completes: every
// index exactly once, whatever the ratio of workers to jobs.
func TestEngineRunsAllJobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		eng  Engine
		n    int
	}{
		{"serial", Engine{Concurrency: 1}, 100},
		{"workers8", Engine{Concurrency: 8}, 100},
		{"workers64", Engine{Concurrency: 64}, 1000},
		{"more workers than jobs", Engine{Concurrency: 64}, 5},
		{"no jobs", Engine{Concurrency: 8}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			prog := NewProgress()
			tc.eng.Progress = prog
			err := tc.eng.Run(context.Background(), tc.n, func(_ context.Context, i int) error {
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Fatalf("job %d ran %d times, want once", i, n)
				}
			}
			if s := prog.Snapshot(); s.Sent != int64(tc.n) || s.Done != int64(tc.n) {
				t.Fatalf("progress = %+v, want sent = done = %d", s, tc.n)
			}
		})
	}
}

// TestEngineCancelStopsClaims cancels from inside a job: workers finish
// the job they hold, claim nothing further, and Run reports the
// cancellation. What was claimed is a prefix of the indices, each run
// once; everything past it was never touched; and every goroutine Run
// started is gone when it returns.
func TestEngineCancelStopsClaims(t *testing.T) {
	const n, workers, cancelAt = 10000, 8, 50
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs := make([]atomic.Int32, n)
	var started atomic.Int32
	eng := &Engine{Concurrency: workers}
	err := eng.Run(ctx, n, func(ctx context.Context, i int) error {
		runs[i].Add(1)
		started.Add(1)
		switch {
		case i == cancelAt-1:
			cancel()
		case i >= cancelAt:
			// Claimed before the cancel landed: hold the worker until
			// it has, or a descheduled canceller lets the other seven
			// run on (188 jobs, once, on a loaded box under -race).
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A worker that had passed its ctx check when cancel landed may
	// still claim one index; none may claim two.
	ran := int(started.Load())
	if ran < cancelAt || ran >= cancelAt+workers {
		t.Fatalf("%d jobs ran, want %d and fewer than %d more", ran, cancelAt, workers)
	}
	for i := range runs {
		want := int32(0)
		if i < ran {
			want = 1
		}
		if got := runs[i].Load(); got != want {
			t.Fatalf("job %d ran %d times with %d jobs claimed, want %d", i, got, ran, want)
		}
	}
	// wg.Done runs a moment before its goroutine is gone, so give the
	// scheduler the chance to retire them; a leaked one never goes.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Run, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestEngineCancelledBeforeRun: a context that is already done hands out
// nothing at all.
func TestEngineCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{Concurrency: 4}
	err := eng.Run(ctx, 100, func(context.Context, int) error {
		t.Error("job ran after cancellation")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineSerialByDefault(t *testing.T) {
	// Concurrency 0 means one worker: jobs arrive strictly in order.
	var order []int
	eng := &Engine{}
	err := eng.Run(context.Background(), 20, func(_ context.Context, i int) error {
		order = append(order, i) // single worker: no locking needed
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestEngineCountsProgress(t *testing.T) {
	prog := NewProgress()
	eng := &Engine{Concurrency: 4, Progress: prog}
	fail := errors.New("probe failed")
	eng.Run(context.Background(), 10, func(_ context.Context, i int) error {
		if i%2 == 0 {
			return fail
		}
		return nil
	})
	s := prog.Snapshot()
	if s.Sent != 10 || s.Done != 5 || s.Errors != 5 {
		t.Fatalf("snapshot = %+v, want sent=10 done=5 errors=5", s)
	}
	if s.QPS <= 0 {
		t.Fatalf("QPS = %v, want > 0", s.QPS)
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ran := 0
	eng := &Engine{Concurrency: 2}
	err := eng.Run(ctx, 1000, func(ctx context.Context, i int) error {
		mu.Lock()
		ran++
		if ran == 10 {
			cancel()
		}
		mu.Unlock()
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 1000 {
		t.Fatal("cancellation did not stop the run")
	}
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
