//go:build !race

package resolver

// raceEnabled reports that the race detector is active; see the race
// build for why the allocation gate cares.
const raceEnabled = false
