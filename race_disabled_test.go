//go:build !race

package ecsdns

// raceEnabled reports that the race detector is compiled in; see the
// race build for what skips on it.
const raceEnabled = false
