package core

import (
	"testing"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/netem"
)

// TestScanUnderCapture runs the active scan with a wire tap attached —
// the simulation equivalent of the paper running tcpdump on its scanner
// — keeping every exchange as the bytes a capture would hold, and
// validates that each one decodes and that the ECS options on the wire
// are well-formed.
func TestScanUnderCapture(t *testing.T) {
	s := BuildStudy(Config{Scale: 0.02, Seed: 3})

	type exchange struct{ Query, Response *dnswire.Message }
	var exchanges []exchange
	// The tap runs on the scan engine's worker, so it reports with Errorf.
	onWire := func(m *dnswire.Message) *dnswire.Message {
		data, err := m.Pack()
		if err != nil {
			t.Errorf("exchange %d: %v", len(exchanges), err)
			return nil
		}
		out, err := dnswire.Unpack(data)
		if err != nil {
			t.Errorf("exchange %d: %v", len(exchanges), err)
		}
		return out
	}
	s.Net.WireTap = func(ev netem.Event) {
		exchanges = append(exchanges, exchange{onWire(ev.Query), onWire(ev.Response)})
	}
	res := s.RunScan()
	s.Net.WireTap = nil

	if t.Failed() {
		t.FailNow()
	}
	if len(exchanges) == 0 {
		t.Fatal("scan produced no captured exchanges")
	}

	ecsQueries := 0
	for i, ex := range exchanges {
		if len(ex.Query.Questions) != 1 {
			t.Fatalf("exchange %d: %d questions", i, len(ex.Query.Questions))
		}
		if ex.Query.Question() != ex.Response.Question() {
			t.Fatalf("exchange %d: question mismatch", i)
		}
		cs, present, err := ecsopt.FromMessage(ex.Query)
		if err != nil {
			t.Fatalf("exchange %d: malformed wire ECS: %v", i, err)
		}
		if present && !cs.IsZero() {
			ecsQueries++
			if err := ecsopt.ValidateQuery(cs); err != nil {
				t.Fatalf("exchange %d: query-side ECS invalid: %v", i, err)
			}
		}
	}
	if ecsQueries == 0 {
		t.Fatal("no ECS queries observed on the wire during the scan")
	}
	// The scan found ECS egresses, so some responses must carry scopes.
	if len(res.ECSEgress) == 0 {
		t.Fatal("scan found no ECS egresses")
	}
	scoped := 0
	for _, ex := range exchanges {
		if cs, present, err := ecsopt.FromMessage(ex.Response); err == nil && present && cs.ScopePrefix > 0 {
			scoped++
		}
	}
	if scoped == 0 {
		t.Fatal("no scoped ECS responses on the wire")
	}
}
