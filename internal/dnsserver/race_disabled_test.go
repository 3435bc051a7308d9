//go:build !race

package dnsserver

// raceEnabled reports that the race detector is active; see the race
// build for why the allocation gates care.
const raceEnabled = false
