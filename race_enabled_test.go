//go:build race

package ecsdns

// raceEnabled reports that the race detector is compiled in.
// TestRunAllSmallScale skips itself then: internal/core runs the
// experiments one by one under the same detector (race-sized; see its
// testConfig), and this sequential second pass through the façade was
// half of `go test -race ./...`.
const raceEnabled = true
