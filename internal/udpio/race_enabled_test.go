//go:build race

package udpio

// raceEnabled reports that the race detector is active: its
// instrumentation makes allocation counts meaningless, so the allocation
// gate skips itself.
const raceEnabled = true
