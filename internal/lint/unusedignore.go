package lint

// unusedignoreCheck is the suppression audit: an //ecslint:ignore
// directive that no longer suppresses anything is itself a finding, so
// suppressions cannot outlive the code smell they were written for and
// quietly blanket future regressions.
//
// The detection has no walker of its own: staleness is computed inside
// applyIgnores, which already matches every finding against every span.
// A span left unused whose named checks all ran is stale (see
// staleIgnores in directives.go); a disabled check makes its spans
// unjudgeable, not stale. The findings carry this check's name, so a
// stale-directive finding can itself be suppressed with
// //ecslint:ignore unusedignore <why> and is toggled by the same Enabled
// switch as every other check. Run, therefore, has nothing to do.
var unusedignoreCheck = Check{
	Name: "unusedignore",
	Doc:  "stale suppression: //ecslint:ignore directive that no longer suppresses anything",
	Run:  func(*Context) {},
}
