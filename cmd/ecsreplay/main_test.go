package main

import (
	"bytes"
	"slices"
	"testing"

	"ecsdns/internal/traces"
)

// replayGolden is ecsreplay -capacity 2048 over tracegen -queries 30000
// (seed 1).
const replayGolden = `trace: 30000 records, 09:00:00 → 09:35:59
max cache size:    1241 with ECS,    477 without → blow-up 2.60×
hit rate:          13.7% with ECS,   48.4% without
bounded LRU (2048 entries):
  with ECS:    hit   12.3%,  14.66 premature evictions/100q
  without ECS: hit   48.4%,   0.00 premature evictions/100q
`

func replayOf(t *testing.T, recs []traces.Record) string {
	t.Helper()
	var csv, out bytes.Buffer
	if err := traces.WriteRecords(&csv, recs); err != nil {
		t.Fatal(err)
	}
	if err := replay(&out, &csv, 2048); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestReplayGolden(t *testing.T) {
	cfg := traces.DefaultAllNames
	cfg.Seed = 1
	cfg.Queries = 30000
	recs := traces.GenerateAllNames(cfg).Records
	if got := replayOf(t, recs); got != replayGolden {
		t.Fatalf("replay printed\n%s\nwant\n%s", got, replayGolden)
	}
	// A log need not be in time order: the same trace written backwards
	// replays the same.
	slices.Reverse(recs)
	if got := replayOf(t, recs); got != replayGolden {
		t.Fatalf("the trace in reverse order printed\n%s\nwant\n%s", got, replayGolden)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	var csv bytes.Buffer
	if err := traces.WriteRecords(&csv, nil); err != nil {
		t.Fatal(err)
	}
	if err := replay(new(bytes.Buffer), &csv, 0); err == nil {
		t.Fatal("an empty trace replayed without an error")
	}
}
