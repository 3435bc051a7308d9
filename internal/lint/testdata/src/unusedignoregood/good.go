// Package unusedignoregood carries only live suppressions: every
// directive either suppresses a real finding, names a check that did
// not run (so its silence proves nothing), or sits under an explicit
// unusedignore waiver.
package unusedignoregood

import "time"

// sameLine suppresses the wallclock finding on its own line.
func sameLine() time.Time {
	return time.Now() //ecslint:ignore wallclock fixture exercises a live same-line suppression
}

// standalone suppresses the finding on the annotated statement below.
func standalone() time.Time {
	//ecslint:ignore wallclock fixture exercises a live standalone suppression
	return time.Now()
}

// notJudged names a check that is switched off in this run: silence
// proves nothing, so the directive must not be reported stale.
func notJudged() int {
	//ecslint:ignore ctxflow judged only when ctxflow actually runs
	return 1
}

// keptForDocs is stale on purpose and says so: the unusedignore
// waiver above absorbs the staleness report.
//
//ecslint:ignore unusedignore retained as the worked example for the directive grammar
//ecslint:ignore wallclock retained as the worked example for the directive grammar
var keptForDocs = 1
