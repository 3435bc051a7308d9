//go:build !race

package core

// raceEnabled reports that the race detector is compiled in; see the
// race build for what it changes.
const raceEnabled = false
