//go:build race

package ecsdns

// raceEnabled reports that the race detector is compiled in.
// TestEveryFunctionLinked skips itself then: what the binaries link does
// not depend on the detector, and the plain run has read it.
const raceEnabled = true
