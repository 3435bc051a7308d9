//go:build !race

package dnswire

// poisonArenas is off outside race builds: an arena is rewritten in
// place (see poison_race.go).
const poisonArenas = false
