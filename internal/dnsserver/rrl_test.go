package dnsserver

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/netem"
)

// TestRRLSlipCadence pins the limiter's determinism under the virtual
// clock: with the clock frozen, the pass/drop/slip sequence for a fixed
// offered load is an exact function of the rate — the property the
// chaos harness relies on to assert exact shed counts.
func TestRRLSlipCadence(t *testing.T) {
	clk := netem.NewClock(netem.SimStart)
	r := newRRL(2, clk.Now)
	addr := netip.MustParseAddr("192.0.2.10")
	want := []rrlAction{
		rrlPass, rrlPass, // burst of ⌈2⌉
		rrlDrop, rrlSlip, rrlDrop, rrlSlip, rrlDrop, rrlSlip, // refused 1..6
	}
	for i, w := range want {
		if got := r.decide(addr); got != w {
			t.Fatalf("query %d: action = %v, want %v", i, got, w)
		}
	}
	// One second of virtual time refills two tokens; the per-bucket
	// refused counter keeps its phase across the refill.
	clk.Advance(time.Second)
	want = []rrlAction{rrlPass, rrlPass, rrlDrop, rrlSlip}
	for i, w := range want {
		if got := r.decide(addr); got != w {
			t.Fatalf("post-refill query %d: action = %v, want %v", i, got, w)
		}
	}
}

// TestRRLPrefixAggregation checks that clients in one /24 (IPv6: /56)
// share a bucket while a different prefix gets its own.
func TestRRLPrefixAggregation(t *testing.T) {
	clk := netem.NewClock(netem.SimStart)
	r := newRRL(1, clk.Now)
	for _, tc := range []struct{ first, sibling, other string }{
		{"198.51.100.1", "198.51.100.200", "198.51.101.1"},
		{"2001:db8:0:1::1", "2001:db8:0:ff::2", "2001:db8:0:100::1"},
	} {
		if got := r.decide(netip.MustParseAddr(tc.first)); got != rrlPass {
			t.Fatalf("first query from %s: %v, want pass", tc.first, got)
		}
		if got := r.decide(netip.MustParseAddr(tc.sibling)); got != rrlDrop {
			t.Fatalf("sibling %s: %v, want drop (shared bucket)", tc.sibling, got)
		}
		if got := r.decide(netip.MustParseAddr(tc.other)); got != rrlPass {
			t.Fatalf("other prefix %s: %v, want pass (own bucket)", tc.other, got)
		}
	}
}

// TestRRLFailOpen checks the bucket-table bound: when the table is full
// and no prefix is idle, new prefixes pass unharmed (the limiter must
// degrade open, not fall over); once existing buckets have fully
// recovered they are swept to make room.
func TestRRLFailOpen(t *testing.T) {
	clk := netem.NewClock(netem.SimStart)
	r := newRRL(1, clk.Now)
	prefix := func(i int) netip.Addr { // 10.i>>8.i&255.1, one /24 each
		return netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
	}
	for i := 0; i < rrlMaxBuckets; i++ {
		if got := r.decide(prefix(i)); got != rrlPass {
			t.Fatalf("prefix %d: %v", i, got)
		}
	}
	// Table full, every bucket drained, clock frozen: nothing to sweep.
	extra := netip.MustParseAddr("192.0.4.1")
	for i := 0; i < 3; i++ {
		if got := r.decide(extra); got != rrlPass {
			t.Fatalf("new prefix at full table, query %d: %v, want fail-open pass", i, got)
		}
	}
	if n := len(r.buckets); n != rrlMaxBuckets {
		t.Fatalf("fail-open grew the table to %d buckets", n)
	}
	// After the existing prefixes have fully recovered, the sweep makes
	// room and the new prefix is tracked normally.
	clk.Advance(10 * time.Second)
	if got := r.decide(extra); got != rrlPass {
		t.Fatalf("new prefix after sweep: %v", got)
	}
	if got := r.decide(extra); got != rrlDrop {
		t.Fatalf("new prefix's second query after sweep: %v, want drop (tracked)", got)
	}
	if n := len(r.buckets); n != 1 {
		t.Fatalf("buckets after sweep = %d, want 1", n)
	}
}

func TestRRLDefaults(t *testing.T) {
	for rate, burst := range map[float64]float64{2.5: 3, 2: 2, 0.5: 1} {
		if got := newRRL(rate, time.Now).burst; got != burst {
			t.Errorf("rate %v: burst = %v, want max(1, ceil(rate)) = %v", rate, got, burst)
		}
	}
	for _, bad := range []float64{-1, math.NaN()} {
		srv := New(answering())
		srv.RRL = bad
		if _, err := srv.Start("127.0.0.1:0"); err == nil {
			srv.Close()
			t.Errorf("Start with RRL %v: want error", bad)
		}
	}
}

func TestParseOverflow(t *testing.T) {
	for spec, want := range map[string]OverflowPolicy{"drop": OverflowDrop, "servfail": OverflowServFail} {
		if got, err := ParseOverflow(spec); err != nil || got != want {
			t.Errorf("ParseOverflow(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"", "Drop", "refuse"} {
		if _, err := ParseOverflow(bad); err == nil {
			t.Errorf("ParseOverflow(%q): want error", bad)
		}
	}
}
