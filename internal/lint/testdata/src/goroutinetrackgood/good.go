// Package goroutinetrackgood shows the accepted goroutine shapes:
// WaitGroup-tracked, tracker-gated, context-cancellable, and named
// functions (whose tracking is the caller's visible responsibility).
package goroutinetrackgood

import (
	"context"
	"sync"
)

type server struct {
	wg sync.WaitGroup
}

func (s *server) run() {}

func (s *server) track() bool { return true }

func (s *server) spawnTracked(work func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		work()
	}()
}

func (s *server) spawnTrackerGated(work func()) {
	go func() {
		if s.track() {
			work()
		}
	}()
}

func (s *server) spawnNamed() {
	go s.run()
}

func spawnCancellable(ctx context.Context, work func(context.Context)) {
	go func() {
		work(ctx)
	}()
}

func spawnWithCtxParam(work func(context.Context)) {
	go func(ctx context.Context) {
		work(ctx)
	}(context.Background())
}

// The bounded worker-pool shapes: a pool of named-function workers
// (tracking is the caller's visible Add-before-spawn), and a
// WaitGroup-tracked literal draining the admission queue.
type pool struct {
	wg    sync.WaitGroup
	queue chan func()
}

func (p *pool) worker() {
	defer p.wg.Done()
	for job := range p.queue {
		job()
	}
}

func (p *pool) start(n int) {
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
}

func (p *pool) startLiteral(n int) {
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.queue {
				job()
			}
		}()
	}
}

// startOnDemand is the coordinator shape: the sender owns a local
// WaitGroup and wraps the named worker in a tracked literal.
func (p *pool) startOnDemand(jobs []func()) {
	var workers sync.WaitGroup
	for _, j := range jobs {
		p.queue <- j
		workers.Add(1)
		go func() {
			defer workers.Done()
			p.drain()
		}()
	}
	close(p.queue)
	workers.Wait()
}

func (p *pool) drain() {
	for job := range p.queue {
		job()
	}
}
