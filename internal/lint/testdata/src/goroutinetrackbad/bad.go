// Package goroutinetrackbad spawns goroutine literals with no lifecycle
// tie at all — the shape behind PR 1's Add-after-Wait race.
package goroutinetrackbad

import "sync"

func spawnUntracked(work func()) {
	go func() {
		work()
	}()
}

func spawnLoop(jobs []func()) {
	for _, j := range jobs {
		go func(f func()) {
			f()
		}(j)
	}
}

// A worker literal draining a channel is still untracked: channel
// closure ends the loop eventually, but nothing can wait for the
// goroutine itself to finish, so shutdown cannot sequence after it.
func spawnPoolUntracked(queue chan func()) {
	for i := 0; i < 4; i++ {
		go func() {
			for job := range queue {
				job()
			}
		}()
	}
}

// Signalling completion over a channel close is not a lifecycle tie
// either — only the single receiver learns the goroutine ended, and
// only if it is still listening.
func spawnCloseNotifier(drain func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		drain()
	}()
	return done
}

type spinner struct {
	wg sync.WaitGroup
	n  int
}

// spin never reaches its exit: no Done case, no close-based range, no
// breaking condition. Spawning it leaks the goroutine permanently —
// named-function spawns are exempt from the tracking rule, not from
// the leak rule.
func (s *spinner) spin() {
	for {
		s.n++
	}
}

func startSpinner(s *spinner) {
	go s.spin()
}

// leakTracked is tracked by the WaitGroup — and still leaks: the body
// after Done's defer can never terminate, so Wait blocks forever.
func leakTracked(wg *sync.WaitGroup, busy func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			busy()
		}
	}()
}

// leakWrapped hides the same leak one call down: the tracked literal
// returns only if spin does, and spin never does.
func leakWrapped(wg *sync.WaitGroup, s *spinner) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.spin()
	}()
}
