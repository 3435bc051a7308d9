//go:build !race

package udpio

// raceEnabled reports that the race detector is active; see the race
// build for why the allocation gate cares.
const raceEnabled = false
