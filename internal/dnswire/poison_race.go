//go:build race

package dnswire

// poisonArenas is on in race builds, which tier-1 runs: each borrowed
// decode and SetQuestionName writes its names onto a new arena and
// overwrites the one it leaves with poison (rewrite), so a name kept past
// its lifetime reads garbage in the test that kept it. A build tag is
// the switch because the race run is the one every change already
// passes, and an ordinary build must not pay for an arena per decode.
const poisonArenas = true
