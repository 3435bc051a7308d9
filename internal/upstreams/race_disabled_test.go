//go:build !race

package upstreams

// raceEnabled reports that the race detector is active; see the race
// build for why the allocation gates care.
const raceEnabled = false
