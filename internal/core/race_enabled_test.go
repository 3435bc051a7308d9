//go:build race

package core

// raceEnabled reports that the race detector is compiled in. The
// experiments start no goroutine, so the detector has nothing to find
// in them and the suite sizes itself down: see testConfig and
// skipFixedTraceUnderRace.
const raceEnabled = true
