package upstreams

import (
	"testing"
	"time"
)

func TestParseHedge(t *testing.T) {
	if h, err := ParseHedge(""); err != nil || h.Enabled {
		t.Fatalf("empty: %+v %v", h, err)
	}
	if h, err := ParseHedge("off"); err != nil || h.Enabled {
		t.Fatalf("off: %+v %v", h, err)
	}
	if h, err := ParseHedge("on"); err != nil || !h.Enabled {
		t.Fatalf("on: %+v %v", h, err)
	}
	h, err := ParseHedge("p=0.9,min=5ms,max=1s")
	if err != nil || !h.Enabled || h.Percentile != 0.9 || h.Min != 5*time.Millisecond || h.Max != time.Second {
		t.Fatalf("knobs: %+v %v", h, err)
	}
	for _, bad := range []string{
		"p=0", "p=1.5", "p=x", "min=0s", "min=x", "max=-1s",
		"frob=1", "p", "min=2s,max=1s",
	} {
		if _, err := ParseHedge(bad); err == nil {
			t.Errorf("ParseHedge(%q) accepted", bad)
		}
	}
}

func TestParseBreaker(t *testing.T) {
	if b, err := ParseBreaker(""); err != nil || b.Disabled {
		t.Fatalf("empty: %+v %v", b, err)
	}
	if b, err := ParseBreaker("off"); err != nil || !b.Disabled {
		t.Fatalf("off: %+v %v", b, err)
	}
	b, err := ParseBreaker("fails=3,open=10s,probes=1")
	if err != nil || b.Failures != 3 || b.OpenFor != 10*time.Second || b.Probes != 1 {
		t.Fatalf("knobs: %+v %v", b, err)
	}
	for _, bad := range []string{
		"fails=0", "fails=x", "open=0s", "open=x", "probes=-1",
		"frob=1", "fails",
	} {
		if _, err := ParseBreaker(bad); err == nil {
			t.Errorf("ParseBreaker(%q) accepted", bad)
		}
	}
}

func TestParseLadder(t *testing.T) {
	if l, err := ParseLadder(""); err != nil || l.Disabled || len(l.Steps) != 0 {
		t.Fatalf("empty: %+v %v", l, err)
	}
	if l, err := ParseLadder("off"); err != nil || !l.Disabled {
		t.Fatalf("off: %+v %v", l, err)
	}
	l, err := ParseLadder("4096,1400,1232,decay=2m")
	if err != nil || len(l.Steps) != 3 || l.Steps[1] != 1400 || l.Decay != 2*time.Minute {
		t.Fatalf("knobs: %+v %v", l, err)
	}
	for _, bad := range []string{
		"0", "100", "70000", "x", "1232,4096", "4096,4096",
		"decay=2m", "4096,decay=0s", "4096,decay=x",
	} {
		if _, err := ParseLadder(bad); err == nil {
			t.Errorf("ParseLadder(%q) accepted", bad)
		}
	}
}
