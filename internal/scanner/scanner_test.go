package scanner

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
)

func TestProbeNameCodec(t *testing.T) {
	zone := dnswire.MustParseName("scan.example.org")
	addr := netip.MustParseAddr("203.0.113.77")
	name, err := EncodeProbeName(addr, zone)
	if err != nil {
		t.Fatalf("EncodeProbeName: %v", err)
	}
	if name != "p-203-0-113-77.scan.example.org." {
		t.Fatalf("encoded = %s", name)
	}
	got, ok := DecodeProbeName(name)
	if !ok || got != addr {
		t.Fatalf("decoded = %v %v", got, ok)
	}
	for _, bad := range []dnswire.Name{
		"www.example.org.", "p-1-2-3.scan.example.org.",
		"p-1-2-3-999.scan.example.org.", "p-a-b-c-d.scan.example.org.", ".",
	} {
		if _, ok := DecodeProbeName(bad); ok {
			t.Errorf("decoded invalid name %s", bad)
		}
	}
}

// TestEncodeProbeNameBadZone is the regression test for the panic this
// function used to raise: a zone too long to take the probe label must
// come back as an error so one bad config can't kill a long scan.
func TestEncodeProbeNameBadZone(t *testing.T) {
	long := strings.Repeat("a23456789012345678901234567890123456789012345678901234567890123.", 4)
	zone := dnswire.Name(long[:len(long)-2] + ".")
	if _, err := EncodeProbeName(netip.MustParseAddr("192.0.2.1"), zone); err == nil {
		t.Fatal("EncodeProbeName on an over-long zone must fail, not panic")
	}
}

// TestScanPropagatesBadZone drives Run with an unencodable zone: no
// probe may be sent and none may count as responding — and nothing may
// panic mid-scan.
func TestScanPropagatesBadZone(t *testing.T) {
	long := strings.Repeat("a23456789012345678901234567890123456789012345678901234567890123.", 4)
	s := &Scan{
		Exchange: func(to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			t.Error("exchange reached despite unencodable probe name")
			return nil, nil
		},
		Zone: dnswire.Name(long[:len(long)-2] + "."),
	}
	res := s.Run([]netip.Addr{netip.MustParseAddr("192.0.2.1")}, &LogBuffer{})
	if len(res.Responding) != 0 {
		t.Fatalf("responding = %v, want none", res.Responding)
	}
}

// TestSeededScanIDsReplay runs one seeded serial scan twice: the probes'
// transaction IDs must repeat, since Go seeds its global source at random.
func TestSeededScanIDsReplay(t *testing.T) {
	var targets []netip.Addr
	for i := 1; i <= 20; i++ {
		targets = append(targets, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}))
	}
	run := func() []uint16 {
		var ids []uint16
		s := &Scan{
			Exchange: func(_ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				ids = append(ids, q.ID)
				return nil, errors.New("no answer")
			},
			Zone: "scan.example.org.",
			Seed: 5,
		}
		s.Run(targets, &LogBuffer{})
		return ids
	}
	a, b := run(), run()
	if len(a) != len(targets) || len(b) != len(targets) {
		t.Fatalf("probes sent: %d and %d, want %d each", len(a), len(b), len(targets))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d: ID %d in one run, %d in the other", i, a[i], b[i])
		}
	}
}

// TestProberBadZoneReturnsError covers the uniqueName error path: both
// prober entry points must surface the config fault instead of
// panicking mid-campaign.
func TestProberBadZoneReturnsError(t *testing.T) {
	long := strings.Repeat("a23456789012345678901234567890123456789012345678901234567890123.", 4)
	p := &Prober{
		Zone:  dnswire.Name(long[:len(long)-2] + "."),
		Logs:  &LogBuffer{},
		Scope: NewScopeControl(),
		Exchange: func(netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
			return nil, nil
		},
	}
	if _, err := p.DetectInjection(); err == nil {
		t.Fatal("DetectInjection with an unencodable zone must fail")
	}
	if _, err := p.Probe(); err == nil {
		t.Fatal("Probe with an unencodable zone must fail")
	}
}

// scanRig wires the full active-measurement topology: an experimental
// authority, a set of egress resolvers with profiles, forwarders
// pointing at them, and optionally hidden resolvers in between.
type scanRig struct {
	world    *geo.Internet
	net      *netem.Network
	logs     *LogBuffer
	scope    *ScopeControl
	authAddr netip.Addr
	zone     dnswire.Name
	dir      *resolver.Directory
	scanAddr netip.Addr
}

func newScanRig(t *testing.T) *scanRig {
	t.Helper()
	w := geo.Build(geo.Config{Seed: 7, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	rg := &scanRig{
		world: w, net: n,
		logs:  &LogBuffer{},
		scope: NewScopeControl(),
		zone:  "scan.example.org.",
	}
	rg.authAddr = w.AddrInCity(geo.CityIndex("Cleveland"), 0, 53)
	auth := authority.NewServer(authority.Config{
		Addr:       rg.authAddr,
		ECSEnabled: true,
		Scope:      rg.scope.Func(),
		RawScope:   true, // the prober controls scopes exactly
		Now:        n.Clock().Now,
	})
	z := authority.NewZone(rg.zone, 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.99")})
	auth.AddZone(z)
	auth.SetLog(rg.logs.Append)
	n.Register(rg.authAddr, auth)

	rg.dir = resolver.NewDirectory()
	rg.dir.Add(rg.zone, rg.authAddr)
	rg.scanAddr = w.AddrInCity(geo.CityIndex("Cleveland"), 1, 9)
	return rg
}

func (rg *scanRig) addResolver(city string, salt int, p resolver.Profile) *resolver.Resolver {
	addr := rg.world.AddrInCity(geo.CityIndex(city), salt, 53)
	r := resolver.New(resolver.Config{
		Addr: addr, Transport: rg.net, Now: rg.net.Clock().Now,
		Directory: rg.dir, Profile: p, Seed: int64(salt),
	})
	rg.net.Register(addr, r)
	return r
}

func (rg *scanRig) addForwarder(addr, upstream netip.Addr) {
	rg.net.Register(addr, &resolver.Forwarder{
		Addr: addr, Upstream: upstream, Transport: rg.net, Open: true,
	})
}

func (rg *scanRig) exchange(to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	resp, _, err := rg.net.Exchange(rg.scanAddr, to, q)
	return resp, err
}

func TestScanAssociatesIngressWithEgress(t *testing.T) {
	rg := newScanRig(t)
	egress := rg.addResolver("London", 3, resolver.GoogleLikeProfile())
	nonECS := rg.addResolver("Paris", 4, resolver.NonECSProfile())

	fwd1 := rg.world.AddrInCity(geo.CityIndex("Dublin"), 5, 20)
	fwd2 := rg.world.AddrInCity(geo.CityIndex("Madrid"), 6, 20)
	rg.addForwarder(fwd1, egress.Addr())
	rg.addForwarder(fwd2, nonECS.Addr())

	scan := &Scan{Exchange: rg.exchange, Zone: rg.zone}
	res := scan.Run([]netip.Addr{fwd1, fwd2, netip.MustParseAddr("1.2.3.4")}, rg.logs)

	if res.Probed != 3 || len(res.Responding) != 2 {
		t.Fatalf("probed=%d responding=%d", res.Probed, len(res.Responding))
	}
	if got := res.IngressToEgress[fwd1]; len(got) != 1 || got[0] != egress.Addr() {
		t.Fatalf("fwd1 egress = %v", got)
	}
	if got := res.IngressToEgress[fwd2]; len(got) != 1 || got[0] != nonECS.Addr() {
		t.Fatalf("fwd2 egress = %v", got)
	}
	if !res.ECSEgress[egress.Addr()] || res.ECSEgress[nonECS.Addr()] {
		t.Fatalf("ECS egress set wrong: %v", res.ECSEgress)
	}
	if !res.EgressSourceBits[egress.Addr()][24] {
		t.Fatalf("source bits = %v", res.EgressSourceBits[egress.Addr()])
	}
	// Forwarder-direct-to-egress: the conveyed prefix covers the
	// ingress, so no hidden combo.
	if len(res.HiddenCombos) != 0 {
		t.Fatalf("unexpected hidden combos: %v", res.HiddenCombos)
	}
}

func TestScanDetectsHiddenResolvers(t *testing.T) {
	rg := newScanRig(t)
	egress := rg.addResolver("London", 3, resolver.GoogleLikeProfile())
	hidden := rg.world.AddrInCity(geo.CityIndex("Rome"), 8, 30)
	rg.addForwarder(hidden, egress.Addr())
	fwd := rg.world.AddrInCity(geo.CityIndex("Santiago"), 9, 20)
	rg.addForwarder(fwd, hidden)

	scan := &Scan{Exchange: rg.exchange, Zone: rg.zone}
	res := scan.Run([]netip.Addr{fwd}, rg.logs)
	if len(res.HiddenCombos) != 1 {
		t.Fatalf("hidden combos = %v", res.HiddenCombos)
	}
	combo := res.HiddenCombos[0]
	if combo.Forwarder != fwd || combo.Egress != egress.Addr() {
		t.Fatalf("combo = %+v", combo)
	}
	if !combo.HiddenPrefix.Contains(hidden) {
		t.Fatalf("hidden prefix %s does not contain hidden resolver %s", combo.HiddenPrefix, hidden)
	}
}

// TestScanAllocatesRandomIDs guards against the old wrapping-counter ID
// scheme (1, 2, 3, …): with RNG allocation, fifty consecutive probes are
// never a strict +1 sequence.
func TestScanAllocatesRandomIDs(t *testing.T) {
	var ids []uint16
	s := &Scan{
		Exchange: func(_ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			ids = append(ids, q.ID)
			return dnswire.NewResponse(q), nil
		},
		Zone: "scan.example.org.",
	}
	targets := make([]netip.Addr, 50)
	for i := range targets {
		targets[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	s.Run(targets, &LogBuffer{})
	if len(ids) != 50 {
		t.Fatalf("captured %d IDs, want 50", len(ids))
	}
	sequential := true
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			sequential = false
			break
		}
	}
	if sequential {
		t.Fatal("probe IDs form a strict counter sequence; want RNG allocation")
	}
}

// TestScanValidatesResponses ensures spoofed or crossed responses — wrong
// ID, wrong question, or missing QR bit — never count as responding.
func TestScanValidatesResponses(t *testing.T) {
	good := netip.MustParseAddr("10.1.0.1")
	badID := netip.MustParseAddr("10.1.0.2")
	badQ := netip.MustParseAddr("10.1.0.3")
	noQR := netip.MustParseAddr("10.1.0.4")
	answer := func(resp *dnswire.Message) *dnswire.Message {
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: resp.Question().Name,
			Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
		})
		return resp
	}
	s := &Scan{
		Exchange: func(to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			resp := answer(dnswire.NewResponse(q))
			switch to {
			case badID:
				resp.ID++
			case badQ:
				resp.Questions[0].Name = "other.example.org."
			case noQR:
				resp.Response = false
			}
			return resp, nil
		},
		Zone: "scan.example.org.",
	}
	res := s.Run([]netip.Addr{good, badID, badQ, noQR}, &LogBuffer{})
	if len(res.Responding) != 1 || res.Responding[0] != good {
		t.Fatalf("responding = %v, want only %s", res.Responding, good)
	}
}

// proberFor builds a Prober against a freshly wired resolver, using
// direct injection (canInject=true) or three vantage forwarders.
func proberFor(t *testing.T, rg *scanRig, res *resolver.Resolver, canInject bool) *Prober {
	t.Helper()
	via := [3]netip.Addr{res.Addr(), res.Addr(), res.Addr()}
	if !canInject {
		// Three vantage forwarders at the injection-prefix /24s.
		for i, p := range InjectionPrefixes {
			a := p.Addr().As4()
			a[3] = 9
			via[i] = netip.AddrFrom4(a)
			rg.addForwarder(via[i], res.Addr())
		}
	}
	return &Prober{
		Zone:      rg.zone,
		Logs:      rg.logs,
		Scope:     rg.scope,
		Exchange:  rg.exchange,
		Via:       via,
		CanInject: canInject,
	}
}

// mustProbe and mustDetect run the fallible prober entry points and
// fail the test on the configuration-fault path, which no rig here
// should hit.
func mustProbe(t *testing.T, p *Prober) CacheObservation {
	t.Helper()
	obs, err := p.Probe()
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	return obs
}

func mustDetect(t *testing.T, p *Prober) bool {
	t.Helper()
	ok, err := p.DetectInjection()
	if err != nil {
		t.Fatalf("DetectInjection: %v", err)
	}
	return ok
}

func TestProbeClassifiesCompliantResolver(t *testing.T) {
	rg := newScanRig(t)
	res := rg.addResolver("London", 3, resolver.CompliantProfile())
	obs := mustProbe(t, proberFor(t, rg, res, true))
	if got := Classify(obs); got != CachingCorrect {
		t.Fatalf("classified %v, obs=%+v", got, obs)
	}
	if obs.MaxConveyedBits > 24 {
		t.Fatalf("compliant resolver conveyed %d bits", obs.MaxConveyedBits)
	}
	if obs.ArrivalsLongPrefix != 1 {
		t.Fatalf("long-prefix trial arrivals = %d, want 1 (truncated)", obs.ArrivalsLongPrefix)
	}
	if obs.ArrivalsScopeOverSource != 1 {
		t.Fatalf("scope-over-source arrivals = %d, want 1 (clamped)", obs.ArrivalsScopeOverSource)
	}
}

func TestProbeClassifiesCompliantViaForwarders(t *testing.T) {
	rg := newScanRig(t)
	res := rg.addResolver("London", 3, resolver.GoogleLikeProfile())
	obs := mustProbe(t, proberFor(t, rg, res, false))
	if got := Classify(obs); got != CachingCorrect {
		t.Fatalf("classified %v, obs=%+v", got, obs)
	}
}

func TestProbeClassifiesIgnoreScope(t *testing.T) {
	rg := newScanRig(t)
	res := rg.addResolver("London", 3, resolver.IgnoreScopeProfile())
	obs := mustProbe(t, proberFor(t, rg, res, false))
	if obs.ArrivalsScope24 != 1 {
		t.Fatalf("scope-24 arrivals = %d, want 1", obs.ArrivalsScope24)
	}
	if got := Classify(obs); got != CachingIgnoresScope {
		t.Fatalf("classified %v, obs=%+v", got, obs)
	}
}

func TestProbeClassifiesLongPrefixAcceptor(t *testing.T) {
	rg := newScanRig(t)
	res := rg.addResolver("London", 3, resolver.LongPrefixProfile())
	obs := mustProbe(t, proberFor(t, rg, res, true))
	if obs.MaxConveyedBits != 28 {
		t.Fatalf("max conveyed = %d, want 28", obs.MaxConveyedBits)
	}
	if obs.ArrivalsLongPrefix != 2 {
		t.Fatalf("long-prefix arrivals = %d, want 2", obs.ArrivalsLongPrefix)
	}
	if got := Classify(obs); got != CachingAcceptsLong {
		t.Fatalf("classified %v, obs=%+v", got, obs)
	}
}

func TestProbeClassifiesCap22(t *testing.T) {
	rg := newScanRig(t)
	res := rg.addResolver("London", 3, resolver.Cap22Profile())
	obs := mustProbe(t, proberFor(t, rg, res, true))
	if obs.ConveyedBitsForInjected24 != 22 {
		t.Fatalf("conveyed for /24 = %d, want 22", obs.ConveyedBitsForInjected24)
	}
	if obs.ArrivalsSameSlash22 != 1 {
		t.Fatalf("same-/22 arrivals = %d, want 1", obs.ArrivalsSameSlash22)
	}
	if got := Classify(obs); got != CachingCaps22 {
		t.Fatalf("classified %v, obs=%+v", got, obs)
	}
}

func TestProbeClassifiesPrivatePrefix(t *testing.T) {
	rg := newScanRig(t)
	res := rg.addResolver("London", 3, resolver.PrivatePrefixProfile())
	obs := mustProbe(t, proberFor(t, rg, res, false))
	if !obs.ConveyedPrivate {
		t.Fatalf("private prefix not observed: %+v", obs)
	}
	if got := Classify(obs); got != CachingPrivatePrefix {
		t.Fatalf("classified %v, obs=%+v", got, obs)
	}
	// The scope-0 bug: answers with scope 0 are not reused.
	if obs.ArrivalsScope0 != 2 {
		t.Fatalf("scope-0 arrivals = %d, want 2 (not cached)", obs.ArrivalsScope0)
	}
}

func TestLogBuffer(t *testing.T) {
	b := &LogBuffer{}
	if b.Len() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	b.Append(authority.LogRecord{Name: "a.example."})
	mark := b.Len()
	b.Append(authority.LogRecord{Name: "b.example."})
	since := b.Since(mark)
	if len(since) != 1 || since[0].Name != "b.example." {
		t.Fatalf("Since = %v", since)
	}
	if len(b.All()) != 2 {
		t.Fatalf("All = %v", b.All())
	}
}

func TestCachingClassStrings(t *testing.T) {
	for c, want := range map[CachingClass]string{
		CachingCorrect: "correct", CachingIgnoresScope: "ignores-scope",
		CachingAcceptsLong: "accepts-long-prefix", CachingCaps22: "caps-22",
		CachingPrivatePrefix: "private-prefix", CachingUnknown: "unknown",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestDetectInjection(t *testing.T) {
	rg := newScanRig(t)
	// Accepting profile: the marker prefix survives to the authority.
	accepting := rg.addResolver("London", 3, resolver.CompliantProfile())
	p := proberFor(t, rg, accepting, true)
	p.CanInject = false
	if !mustDetect(t, p) {
		t.Fatal("accepting resolver not detected")
	}
	if !p.CanInject {
		t.Fatal("DetectInjection must set CanInject")
	}
	// Overriding profile: the marker is replaced with the sender prefix.
	overriding := rg.addResolver("Paris", 4, resolver.GoogleLikeProfile())
	p2 := proberFor(t, rg, overriding, true)
	p2.CanInject = false
	if mustDetect(t, p2) {
		t.Fatal("sender-deriving resolver detected as accepting")
	}
	// Cap-22 resolvers truncate the marker but still accept it (they
	// are among the paper's 32 injection-capable resolvers).
	capper := rg.addResolver("Madrid", 5, resolver.Cap22Profile())
	p3 := proberFor(t, rg, capper, true)
	p3.CanInject = false
	if !mustDetect(t, p3) {
		t.Fatal("cap-22 resolver not detected as accepting")
	}
}
