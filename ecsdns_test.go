package ecsdns

import "testing"

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 20 {
		t.Fatalf("experiments = %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", DefaultConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunOne(t *testing.T) {
	rep, err := Run("table2", Config{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table2" || len(rep.Metrics) == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestRunAllSmallScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("RunAll is exercised per-experiment in internal/core")
	}
	reps, err := RunAll(Config{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Experiments()) {
		t.Fatalf("got %d reports", len(reps))
	}
}
