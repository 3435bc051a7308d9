//go:build !race

package ecscache

// raceEnabled reports that the race detector is active; see the race
// build for why the allocation gate cares.
const raceEnabled = false
