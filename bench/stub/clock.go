package stub

import "time"

// The benchmark's reads of and waits on the wall clock all go through
// these three: everything it reports is a real duration.

// Now reads the wall clock.
func Now() time.Time {
	return time.Now() //ecslint:ignore wallclock a benchmark measures real elapsed time
}

// After is time.After.
func After(d time.Duration) <-chan time.Time {
	return time.After(d) //ecslint:ignore wallclock real timeouts on real processes and sockets
}

// Sleep is time.Sleep.
func Sleep(d time.Duration) {
	time.Sleep(d) //ecslint:ignore wallclock real waits on real processes
}
