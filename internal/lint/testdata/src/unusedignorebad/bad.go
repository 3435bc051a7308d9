// Package unusedignorebad hoards suppressions that suppress nothing:
// directives for checks that ran and found the code clean.
package unusedignorebad

// stale names a check that runs and finds nothing on its span.
func stale() int {
	//ecslint:ignore wallclock nothing on this line touches the clock
	return 2
}

// staleSameLine rides a clean expression.
func staleSameLine() int {
	return 3 //ecslint:ignore wallclock clean line, stale directive
}
