package main

import (
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/resolver"
	"ecsdns/internal/upstreams"
	"ecsdns/internal/upstreams/live"
)

func TestCheckHostPort(t *testing.T) {
	for _, tc := range []struct {
		addr string
		ok   bool
	}{
		{"127.0.0.1:5300", true},
		{"[::1]:53", true},
		{"ns1.example.org:53", false}, // no name is looked up
		{"127.0.0.1:0", false},
		{"nonsense", false},
		{"127.0.0.1", false},
		{"::1", false},
		{"", false},
		{"127.0.0.1:", false}, // splits, but would dial port 0
		{":53", false},
		{":", false},
	} {
		if err := live.CheckHostPort(tc.addr); (err == nil) != tc.ok {
			t.Errorf("CheckHostPort(%q) = %v, want ok=%v", tc.addr, err, tc.ok)
		}
	}
}

// TestHostnameUpstreamRefused: a hostname upstream is a start-up error
// that names the flag that gave it, in a list or alone.
func TestHostnameUpstreamRefused(t *testing.T) {
	for _, tc := range []struct{ upstream, list, flag string }{
		{"ns1.example:53", "", "-upstream: "},
		{"127.0.0.1:5300", "127.0.0.1:5301,ns1.example:53/1", "-upstreams: "},
	} {
		_, _, _, err := newPool(tc.upstream, tc.list, false, true, true)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) || !strings.Contains(err.Error(), "ns1.example:53") {
			t.Errorf("newPool(%q, %q) error = %v, want one naming %s and the upstream", tc.upstream, tc.list, err, strings.TrimSuffix(tc.flag, ": "))
		}
	}
	pool, udp, spec, err := newPool("127.0.0.1:5300", "", false, true, true)
	if err != nil || pool == nil || spec != "127.0.0.1:5300" {
		t.Fatalf("newPool(127.0.0.1:5300) = %v, %q, %v", pool, spec, err)
	}
	udp.Close()
}

func TestCheckUpstreamFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		upstreamSet bool
		list        string
		ok          bool
	}{
		{name: "defaults", ok: true},
		{name: "single upstream given", upstreamSet: true, ok: true},
		{name: "list alone", list: "127.0.0.1:5300", ok: true},
		// Even a well-formed -upstream is refused beside a list: it would
		// never be dialled, and a malformed one never checked.
		{name: "upstream beside a list", upstreamSet: true, list: "127.0.0.1:5300"},
	} {
		err := checkUpstreamFlags(tc.upstreamSet, tc.list)
		if tc.ok && err != nil {
			t.Errorf("%s: %v, want accepted", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "mutually exclusive")) {
			t.Errorf("%s: error = %v, want one mentioning %q", tc.name, err, "mutually exclusive")
		}
	}
}

func TestCheckTTLFlags(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		negTTL, minTTL, maxTTL time.Duration
		errPart                string // non-empty: rejected, mentioning this
	}{
		{name: "defaults"},
		{name: "floor below ceiling", minTTL: time.Minute, maxTTL: time.Hour},
		{name: "floor equal to ceiling", minTTL: time.Minute, maxTTL: time.Minute},
		{name: "floor alone", minTTL: time.Hour},
		{name: "ceiling alone", maxTTL: time.Second},
		{name: "floor above ceiling", minTTL: 10 * time.Minute, maxTTL: time.Minute, errPart: "-min-ttl 10m0s exceeds -max-ttl 1m0s"},
		{name: "negative clamp", negTTL: -time.Second, errPart: "non-negative"},
	} {
		err := checkTTLFlags(tc.negTTL, tc.minTTL, tc.maxTTL)
		if tc.errPart == "" && err != nil {
			t.Errorf("%s: %v, want accepted", tc.name, err)
		}
		if tc.errPart != "" && (err == nil || !strings.Contains(err.Error(), tc.errPart)) {
			t.Errorf("%s: error = %v, want one mentioning %q", tc.name, err, tc.errPart)
		}
	}
}

// TestSingleUpstreamDoesNotStackRetries pins that a dead upstream costs
// one failure, not a product of retry loops: -upstream used to put the
// client's own two retries and TCP fallback under the resolver's two
// (nine UDP dials and three TCP dials per client query, each a timeout
// against an upstream that drops instead of refusing).
func TestSingleUpstreamDoesNotStackRetries(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on Linux delivering ICMP errors to connected UDP sockets")
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := pc.LocalAddr().String()
	pc.Close()
	pool, udp, err := live.NewPool(closed, false, true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	dir := resolver.NewDirectory()
	dir.Add(dnswire.Root, netip.MustParseAddr("192.0.2.1"))
	res := resolver.New(resolver.Config{
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Now:       time.Now,
		Directory: dir,
		Profile:   resolver.CompliantProfile(),
		Pool:      pool,
	})
	q := dnswire.NewQuery(1, dnswire.MustParseName("dead.upstream.test."), dnswire.TypeA)
	start := time.Now()
	resp := res.HandleDNS(netip.MustParseAddr("127.0.0.1"), q)
	elapsed := time.Since(start)
	if resp == nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("response = %+v, want SERVFAIL", resp)
	}
	if elapsed >= time.Second {
		t.Fatalf("one query against a closed upstream port took %v, want under 1s", elapsed)
	}
	if _, up := res.Counters(); up != 1 {
		t.Errorf("resolver sent %d upstream queries, want 1", up)
	}
	// The ladder steps down once on a UDP loss, so the pool's one attempt
	// is at most two datagrams.
	if st := udp.Stats(); st.Dialed > 2 {
		t.Errorf("dialed %d upstream sockets for one client query, want <= 2", st.Dialed)
	}
}

func TestParsePoolSpec(t *testing.T) {
	addr := func(i byte) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, i}) }
	for _, tc := range []struct {
		name    string
		spec    string
		want    []upstreams.Upstream
		targets []string // by position: the ip:port want[i].Addr routes to
		errPart string   // non-empty: the spec must be rejected mentioning this
	}{
		{
			name:    "bare members get synthetic addresses in order",
			spec:    "127.0.0.1:5300, 127.0.0.1:5301",
			want:    []upstreams.Upstream{{Addr: addr(1)}, {Addr: addr(2)}},
			targets: []string{"127.0.0.1:5300", "127.0.0.1:5301"},
		},
		{
			name:    "priority and weight",
			spec:    "198.51.100.1:53/1,198.51.100.2:53/2/5,[::1]:53/0/1",
			want:    []upstreams.Upstream{{Addr: addr(1), Priority: 1}, {Addr: addr(2), Priority: 2, Weight: 5}, {Addr: addr(3), Weight: 1}},
			targets: []string{"198.51.100.1:53", "198.51.100.2:53", "[::1]:53"},
		},
		{name: "missing port", spec: "127.0.0.1", errPart: "not an ip:port"},
		{name: "empty port", spec: "127.0.0.1:53,127.0.0.2:/1", errPart: "no port"},
		{name: "empty member", spec: "127.0.0.1:53,,127.0.0.2:53", errPart: `bad pool upstream ""`},
		{name: "four fields", spec: "127.0.0.1:53/1/2/3", errPart: "want ip:port[/priority[/weight]]"},
		{name: "negative priority", spec: "127.0.0.1:53/-1", errPart: "bad priority"},
		{name: "non-numeric priority", spec: "127.0.0.1:53/high", errPart: "bad priority"},
		{name: "zero weight", spec: "127.0.0.1:53/0/0", errPart: "bad weight"},
		{name: "more than 254 members", spec: strings.TrimSuffix(strings.Repeat("127.0.0.1:53,", 255), ","), errPart: "max 254"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ups, targets, err := live.ParseSpec(tc.spec)
			if tc.errPart != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errPart) {
					t.Fatalf("ParseSpec(%q) error = %v, want one mentioning %q", tc.spec, err, tc.errPart)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ups) != len(tc.want) || len(targets) != len(tc.want) {
				t.Fatalf("got %d upstreams and %d targets, want %d", len(ups), len(targets), len(tc.want))
			}
			for i, want := range tc.want {
				if ups[i] != want {
					t.Errorf("upstream %d = %+v, want %+v", i, ups[i], want)
				}
				if got := targets[want.Addr]; got != tc.targets[i] {
					t.Errorf("target of %v = %q, want %q", want.Addr, got, tc.targets[i])
				}
			}
		})
	}
	// 254 members is the most the synthetic 192.0.2.x range can address.
	if ups, _, err := live.ParseSpec(strings.TrimSuffix(strings.Repeat("127.0.0.1:53,", 254), ",")); err != nil || len(ups) != 254 {
		t.Fatalf("254 members: %d upstreams, %v", len(ups), err)
	}
}
