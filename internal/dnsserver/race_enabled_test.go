//go:build race

package dnsserver

// raceEnabled reports that the race detector is active: its
// instrumentation (and sync.Pool's deliberate cache-bypassing under
// race) makes allocation counts meaningless, so the allocation gates
// skip themselves.
const raceEnabled = true
