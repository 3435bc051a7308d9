// Package counterpartitionbad breaks its declared accounting partition
// in every way counterpartition detects: a leaking exit path, a
// double-counting path, unlocked bare increments, a handler directive
// naming a struct with no invariant, and a hand-off that drops a unit.
package counterpartitionbad

import "sync/atomic"

// stats declares the partition the handlers below must respect.
//
//ecsinvariant:partition received = done + failed
type stats struct {
	received, done, failed atomic.Int64
}

// leak returns early without classifying the unit.
//
//ecsinvariant:handler stats
func leak(s *stats, ok bool) {
	if !ok {
		return
	}
	s.done.Add(1)
}

// double counts the failed unit as done too.
//
//ecsinvariant:handler stats
func double(s *stats, ok bool) {
	s.done.Add(1)
	if !ok {
		s.failed.Add(1)
	}
}

// plain uses bare ints, so its increments need a mutex.
//
//ecsinvariant:partition got = okCount + badCount
type plain struct {
	got, okCount, badCount int
}

// bare increments without holding any lock.
//
//ecsinvariant:handler plain
func bare(p *plain, ok bool) {
	if ok {
		p.okCount++
	} else {
		p.badCount++
	}
}

// orphan names a struct that carries no invariant.
//
//ecsinvariant:handler nosuch
func orphan() {}

// dropOnFull neither hands the unit on nor counts it when the channel is
// full.
//
//ecsinvariant:handoff stats
func dropOnFull(q chan<- int) {
	select {
	case q <- 1:
	default:
	}
}
