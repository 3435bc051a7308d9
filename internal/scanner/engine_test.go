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

// TestRateLimiterContextCancel: a waiter whose context ends gets its
// error within a second, alone and while another waiter sleeps for the
// same token — a sleeper that held the lock would keep it for ~17
// minutes.
func TestRateLimiterContextCancel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sleeper bool // a first waiter sleeps for the token meanwhile
	}{
		{"alone", false},
		{"behind a sleeper", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewRateLimiter(0.001, 1) // one token per ~17 minutes
			if err := l.Wait(context.Background()); err != nil {
				t.Fatal(err) // burst token
			}
			if tc.sleeper {
				sleeperCtx, stop := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				defer wg.Wait()
				defer stop()
				last := l.last
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.Wait(sleeperCtx)
				}()
				// The sleeper is committed to its sleep once it has
				// read the clock under the lock (or holds it still).
				for l.mu.TryLock() {
					started := !l.last.Equal(last)
					l.mu.Unlock()
					if started {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- l.Wait(ctx) }()
			select {
			case err := <-errc:
				if err != context.DeadlineExceeded {
					t.Fatalf("err = %v, want deadline exceeded", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Wait ignored context cancellation")
			}
		})
	}
}
