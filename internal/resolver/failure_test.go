package resolver

import (
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/netem"
)

func TestRetriesSurviveInjectedLoss(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	// 40% loss: with 3 attempts per query, resolution still succeeds
	// almost always; assert over several names.
	rg.net.SetFaults(netem.FaultPlan{Loss: 0.4}, 7)
	ok := 0
	for i := 0; i < 20; i++ {
		name := dnswire.Name(rune('a'+i)) + "loss.test.example."
		q := dnswire.NewQuery(uint16(i+1), dnswire.MustParseName(string(name)), dnswire.TypeA)
		// A real stub client retries its own leg too.
		var resp *dnswire.Message
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			resp, _, err = rg.net.Exchange(rg.client("London", 9), rg.res.Addr(), q)
			if err == nil {
				break
			}
		}
		if err != nil {
			continue
		}
		if resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 1 {
			ok++
		}
	}
	if ok < 16 {
		t.Fatalf("only %d/20 queries succeeded under 40%% loss with retries", ok)
	}
	_, up := rg.res.Counters()
	if up <= int64(ok) {
		t.Fatalf("upstream attempts %d do not reflect retries for %d successes", up, ok)
	}
}

func TestTotalLossYieldsServfail(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	rg.net.SetFaults(netem.FaultPlan{Loss: 1.0}, 7)
	q := dnswire.NewQuery(1, "dead.test.example.", dnswire.TypeA)
	resp, _, err := rg.net.Exchange(rg.client("London", 9), rg.res.Addr(), q)
	// Either the client leg was lost (error) or the resolver answered
	// SERVFAIL after exhausting retries.
	if err == nil && resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v under total loss", resp.RCode)
	}
}

func TestNegativeCachingUsesSOAMinimum(t *testing.T) {
	// An NXDOMAIN answer must be cached for the SOA minimum (60 s in
	// the rig's zone), not refetched per query, and must expire.
	w := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	// Rig zone wildcard answers everything; use a separate zone without
	// a wildcard to get NXDOMAIN.
	nxZone := authority.NewZone("nx.example.", 20)
	nxZone.MustAdd(dnswire.RR{Name: "exists.nx.example.", Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.9")}})
	w.auth.AddZone(nxZone)
	dir := NewDirectory()
	dir.Add("test.example.", w.authAddr)
	dir.Add("nx.example.", w.authAddr)
	w.res.cfg.Directory = dir

	c := w.client("London", 9)
	ask := func() *dnswire.Message {
		q := dnswire.NewQuery(3, "missing.nx.example.", dnswire.TypeA)
		resp, _, err := w.net.Exchange(c, w.res.Addr(), q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := ask()
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	upstreamAfterFirst := w.logs.Len()
	ask()
	if w.logs.Len() != upstreamAfterFirst {
		t.Fatal("NXDOMAIN not served from the negative cache")
	}
	// The zone SOA minimum is 60 s (authority.NewZone default); after
	// it passes, the next query goes upstream again.
	w.net.Clock().Advance(61 * time.Second)
	ask()
	if w.logs.Len() != upstreamAfterFirst+1 {
		t.Fatalf("negative entry did not expire: %d upstream queries", w.logs.Len())
	}
}

func TestNegativeTTLHelper(t *testing.T) {
	soa := dnswire.RR{
		Name: "zone.example.", Class: dnswire.ClassINET, TTL: 100,
		Data: &dnswire.SOARData{Minimum: 60},
	}
	if got := negativeTTL([]dnswire.RR{soa}); got != 60*time.Second {
		t.Fatalf("negativeTTL = %v, want SOA minimum", got)
	}
	soa.TTL = 10 // SOA TTL lower than minimum: RFC 2308 takes the min
	if got := negativeTTL([]dnswire.RR{soa}); got != 10*time.Second {
		t.Fatalf("negativeTTL = %v, want SOA TTL", got)
	}
	if got := negativeTTL(nil); got != 30*time.Second {
		t.Fatalf("negativeTTL fallback = %v", got)
	}
}

func TestServeStaleOnUpstreamFailure(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	c := rg.client("London", 9)
	// Warm the cache, then let the entry expire (zone TTL is 20s).
	q := dnswire.NewQuery(1, "stale.test.example.", dnswire.TypeA)
	resp, _, err := rg.net.Exchange(c, rg.res.Addr(), q)
	if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("warm query failed: %v %v", resp, err)
	}
	want := resp.Answers[0].Data
	rg.net.Clock().Advance(25 * time.Second)

	// Kill the upstream path (the authority only; the client leg stays
	// clean) and ask again: the resolver must serve the stale answer.
	rg.net.SetNodeFaults(rg.authAddr, netem.FaultPlan{Loss: 1.0}, 5)
	resp, _, err = rg.net.Exchange(c, rg.res.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("want stale answer, got %v", resp)
	}
	if resp.Answers[0].Data != want {
		t.Fatalf("stale answer changed: %v vs %v", resp.Answers[0].Data, want)
	}
	if resp.Answers[0].TTL != 30 {
		t.Fatalf("stale TTL = %d, want the RFC 8767 short TTL 30", resp.Answers[0].TTL)
	}
	f := rg.res.Failures()
	if f.ServedStale != 1 || f.UpstreamFailures != 1 || f.UpstreamRetries == 0 {
		t.Fatalf("failure counters = %+v", f)
	}

	// An unknown name has no stale entry: that still degrades to
	// SERVFAIL, explicitly counted.
	q2 := dnswire.NewQuery(2, "never-seen.test.example.", dnswire.TypeA)
	resp, _, err = rg.net.Exchange(c, rg.res.Addr(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v for uncached name under total upstream loss", resp.RCode)
	}
	if f := rg.res.Failures(); f.ServFailsReturned != 1 {
		t.Fatalf("failure counters = %+v", f)
	}

	// Past maxStale the entry is unusable: SERVFAIL again.
	rg.net.Clock().Advance(2 * time.Hour)
	resp, _, err = rg.net.Exchange(c, rg.res.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("entry older than maxStale served: %v", resp)
	}
}

// Sweep is what bounds an unbounded cache over time, and it must not
// take away what serve-stale may still need: an expired entry stays
// until it is maxStale past its expiry.
func TestSweepKeepsServableStaleEntries(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	clock := rg.net.Clock()
	key := ecscache.Key{Name: "once.test.example.", Type: dnswire.TypeA, Class: dnswire.ClassINET}
	rg.res.Cache().Insert(key, ecscache.Entry{Expiry: clock.Now().Add(60 * time.Second)}, clock.Now())

	clock.Advance(61 * time.Second)
	if n := rg.res.Sweep(clock.Now()); n != 0 || rg.res.Cache().Stats().Live != 1 {
		t.Fatalf("Sweep removed %d entries 1s after expiry; serve-stale may still need them", n)
	}
	clock.Advance(maxStale)
	if n := rg.res.Sweep(clock.Now()); n != 1 {
		t.Fatalf("Sweep removed %d entries past maxStale, want 1", n)
	}
	if st := rg.res.Cache().Stats(); st.Live != 0 || st.Expiries != 1 {
		t.Fatalf("after Sweep: %+v, want live=0 expiries=1", st)
	}
}

func TestUpstreamValidationRetries(t *testing.T) {
	// Injected corruption (ID flip), truncation, and SERVFAIL are each
	// detected, counted, and retried through; with fault probability
	// well below certainty the resolver still answers.
	cases := []struct {
		name  string
		plan  netem.FaultPlan
		check func(f FailureCounters) bool
	}{
		{"corrupt", netem.FaultPlan{Corrupt: 0.5}, func(f FailureCounters) bool { return f.UpstreamMismatched > 0 }},
		{"truncate", netem.FaultPlan{Truncate: 0.5}, func(f FailureCounters) bool { return f.UpstreamTruncated > 0 }},
		{"servfail", netem.FaultPlan{ServFail: 0.5}, func(f FailureCounters) bool { return f.UpstreamServFails > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
			rg.net.SetNodeFaults(rg.authAddr, tc.plan, 11)
			c := rg.client("London", 9)
			ok := 0
			for i := 0; i < 10; i++ {
				name := string(rune('a'+i)) + ".val.test.example."
				q := dnswire.NewQuery(uint16(i+1), dnswire.MustParseName(name), dnswire.TypeA)
				resp, _, err := rg.net.Exchange(c, rg.res.Addr(), q)
				if err == nil && resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 1 {
					ok++
				}
			}
			if ok < 8 {
				t.Fatalf("only %d/10 resolved under 50%% %s injection with retries", ok, tc.name)
			}
			f := rg.res.Failures()
			if !tc.check(f) {
				t.Fatalf("failure class not counted: %+v", f)
			}
			if f.UpstreamRetries == 0 {
				t.Fatalf("no retries recorded: %+v", f)
			}
		})
	}
}

func TestRetriesConfig(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	if rg.res.retries() != 2 {
		t.Fatalf("retries without a pool = %d, want 2", rg.res.retries())
	}
	if got := newPoolRig(t, nil).res.retries(); got != 0 {
		t.Fatalf("retries behind a pool = %d, want 0", got)
	}
}
