//go:build race

package main

// raceEnabled reports that the race detector is active: its
// instrumentation (and sync.Pool's deliberate cache-bypassing under
// race) makes allocation counts meaningless, so the allocation gate
// skips itself.
const raceEnabled = true
