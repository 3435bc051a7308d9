// Package counterpartitiongood keeps its accounting partition exact on
// every exit path: direct increments, callee increments, locked bare
// counters, a counted panic path, and a hand-off over a channel.
package counterpartitiongood

import (
	"sync"
	"sync/atomic"
)

// stats declares the partition.
//
//ecsinvariant:partition received = done + failed
type stats struct {
	received, done, failed atomic.Int64
}

// classify counts exactly one term on each path.
//
//ecsinvariant:handler stats
func classify(s *stats, ok bool) {
	if !ok {
		s.failed.Add(1)
		return
	}
	s.done.Add(1)
}

// viaCallee delegates one path's increment to a helper; the summary
// layer carries the count across the call.
//
//ecsinvariant:handler stats
func viaCallee(s *stats, ok bool) {
	if ok {
		s.done.Add(1)
		return
	}
	fail(s)
}

func fail(s *stats) {
	s.failed.Add(1)
}

// withRecover counts the panic exit in the recover block and the normal
// exit after the callback.
//
//ecsinvariant:handler stats
func withRecover(s *stats, f func()) {
	defer func() {
		if r := recover(); r != nil {
			s.failed.Add(1)
		}
	}()
	f()
	s.done.Add(1)
}

// plain uses bare ints guarded by a mutex.
//
//ecsinvariant:partition got = okCount + badCount
type plain struct {
	mu                     sync.Mutex
	got, okCount, badCount int
}

// locked increments under the struct's mutex, held to function end by
// the deferred unlock.
//
//ecsinvariant:handler plain
func locked(p *plain, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.okCount++
	} else {
		p.badCount++
	}
}

// handOff passes the unit over a channel to a goroutine whose handler
// counts it, and counts it itself only when the channel is full.
//
//ecsinvariant:handoff stats
func handOff(s *stats, q chan<- int) {
	select {
	case q <- 1:
	default:
		s.failed.Add(1)
	}
}

// viaHandOff counts a call to a hand-off function as its one term.
//
//ecsinvariant:handler stats
func viaHandOff(s *stats, q chan<- int, ok bool) {
	if ok {
		s.done.Add(1)
		return
	}
	handOff(s, q)
}
