package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/netem"
)

// This file checks the resolver's ECS decision against a reference
// model written from the paper's definitions (§6.1 probing, §6.2 source
// prefixes, §6.3 scope handling) and RFC 7871: a query resolves for a
// source prefix, an answer's scope says how far it may be reused (scope
// 0 is global, and an RFC-minded cache reuses no further than the source
// it asked with), and a client option with source 0 opts out. The model
// calls none of the package's code. It is driven with seeded sequences
// over every profile the package cans and every profile the study
// population builds, for IPv4, IPv6 and 4-in-6 clients, each client ECS
// class and each scope an authority can return; once against decide
// itself and once against a whole resolver.

// Client ECS classes: what a client query carries.
const (
	ecsAbsent  = iota
	ecsOptOut  // source 0, in the client's family (family 0 for half of them)
	ecsShorter // 4 bits under the profile's ceiling
	ecsLonger  // 4 bits over it, within the family
	ecsClasses
)

// Scope classes: what the authority answers an ECS query with.
const (
	scopeZero  = iota
	scopeBelow // half the source
	scopeEqual
	scopeAbove // 4 bits over the source, within the family
	scopeClasses
)

// The names the sequences ask for: the study's probe hostname and
// another name under one authority, a name under a second, and a name
// only the root answers.
var (
	modelProbeName = dnswire.Name("pinned.cdn-d.example.")
	modelNames     = []dnswire.Name{modelProbeName, "a.cdn-d.example.", "b.other.example.", "host.arpa."}
	modelAuthA     = netip.MustParseAddr("203.0.113.53")
	modelAuthB     = netip.MustParseAddr("2001:db8:53::53")
	modelRoot      = netip.MustParseAddr("198.41.0.4")
	modelResolver  = netip.MustParseAddr("192.0.2.53")
)

// The clients of each family; the 4-in-6 clients are the IPv4 ones
// mapped.
var (
	modelV4 = []netip.Addr{netip.MustParseAddr("198.51.100.77"), netip.MustParseAddr("198.51.7.200")}
	modelV6 = []netip.Addr{netip.MustParseAddr("2001:db8:42:17ab::9"), netip.MustParseAddr("2001:db8:9:1::1")}
)

func modelClients(family string) []netip.Addr {
	switch family {
	case "v4":
		return modelV4
	case "v6":
		return modelV6
	}
	var out []netip.Addr
	for _, a := range modelV4 {
		out = append(out, netip.AddrFrom16(a.As16()))
	}
	return out
}

type namedProfile struct {
	name string
	p    Profile
}

// modelProfiles is every canned profile, and every profile package
// core's population.go (cdnCohorts, cachingCohorts) and root-trace
// experiment build, mirrored here because core imports this package.
func modelProfiles() []namedProfile {
	out := []namedProfile{
		{"compliant", CompliantProfile()},
		{"google-like", GoogleLikeProfile()},
		{"jammed", JammedProfile()},
		{"full-prefix", FullPrefixProfile()},
		{"25-bit", TwentyFiveBitProfile()},
		{"ignore-scope", IgnoreScopeProfile()},
		{"long-prefix", LongPrefixProfile()},
		{"cap22", Cap22Profile()},
		{"loopback-prober", LoopbackProberProfile()},
		{"private-prefix", PrivatePrefixProfile()},
		{"non-ecs", NonECSProfile()},
		{"adaptive", AdaptiveProfile()},
	}
	add := func(name string, p Profile) { out = append(out, namedProfile{name, p}) }
	for _, bits := range []int{18, 22, 32} {
		p := FullPrefixProfile()
		p.V4SourceBits = bits
		add(fmt.Sprintf("all/%d", bits), p)
	}
	for _, bits := range []int{56, 48, 32, 64} {
		p := GoogleLikeProfile()
		p.V6SourceBits = bits
		add(fmt.Sprintf("all/v6-%d", bits), p)
	}
	hostnames := GoogleLikeProfile()
	hostnames.Probing, hostnames.ProbeNames = ProbeHostnames, []dnswire.Name{modelProbeName}
	add("hostnames-no-cache", hostnames)
	interval := LoopbackProberProfile()
	interval.ProbeNames = []dnswire.Name{modelProbeName}
	add("interval-loopback", interval)
	onMiss := GoogleLikeProfile()
	onMiss.Probing, onMiss.ProbeNames = ProbeOnMiss, []dnswire.Name{modelProbeName}
	add("on-miss", onMiss)
	random := GoogleLikeProfile()
	random.Probing = ProbeRandom
	add("random", random)
	random32 := FullPrefixProfile()
	random32.Probing, random32.V4SourceBits = ProbeRandom, 32
	add("random/32", random32)
	for _, bits := range [][]int{{25, 32}, {24, 25, 32}, {24, 32}} {
		p := FullPrefixProfile()
		p.Probing, p.MixedV4Bits, p.JamLastByte, p.JamValue = ProbeRandom, bits, true, 0x01
		add(fmt.Sprintf("random/%v-jam", bits), p)
	}
	root := GoogleLikeProfile()
	root.SendECSToRoot = true
	add("root-violator", root)
	return out
}

// family-level facts, from the address alone.
func famBits(a netip.Addr) int {
	if a.Is4() {
		return 32
	}
	return 128
}

// modelSubnet is the query-side option for the first bits of a.
func modelSubnet(a netip.Addr, bits int) ecsopt.ClientSubnet {
	fam := ecsopt.FamilyIPv6
	if a.Is4() {
		fam = ecsopt.FamilyIPv4
	}
	p, _ := a.Prefix(bits)
	return ecsopt.ClientSubnet{Family: fam, SourcePrefix: uint8(bits), Addr: p.Addr()}
}

// modelCeiling is how many bits of a client's own option a profile
// that accepts them forwards: the §6.3 class's ceiling for IPv4 (24
// unless the class says otherwise), the IPv6 source policy for IPv6.
func modelCeiling(p Profile, v6 bool) int {
	switch {
	case v6 && p.V6SourceBits != 0:
		return p.V6SourceBits
	case v6:
		return 56
	case p.MaxClientECSBits != 0:
		return p.MaxClientECSBits
	}
	return 24
}

// clientOption is the option a client of class cls sends from from,
// nil for none: its subnet is not the sender's, so the upstream query
// shows whose subnet the resolver used.
func clientOption(p Profile, from netip.Addr, cls, step int) *ecsopt.ClientSubnet {
	v6 := !from.Unmap().Is4()
	addr := netip.MustParseAddr("203.0.113.200")
	if v6 {
		addr = netip.MustParseAddr("2001:db8:77:8899:aabb::1")
	}
	var cs ecsopt.ClientSubnet
	switch cls {
	case ecsAbsent:
		return nil
	case ecsOptOut:
		cs = modelSubnet(addr, 0)
		if step%8 < 4 {
			cs = ecsopt.ClientSubnet{Family: ecsopt.FamilyNone}
		}
	case ecsShorter:
		cs = modelSubnet(addr, modelCeiling(p, v6)-4)
	case ecsLonger:
		cs = modelSubnet(addr, min(modelCeiling(p, v6)+4, famBits(addr)))
	}
	return &cs
}

// modelScope is the scope the authority answers a query of source
// source in a family of width width with.
func modelScope(cls int, source uint8, width int) uint8 {
	switch cls {
	case scopeBelow:
		return source / 2
	case scopeEqual:
		return source
	case scopeAbove:
		return uint8(min(int(source)+4, width))
	}
	return 0
}

func optWidth(cs ecsopt.ClientSubnet) int {
	switch cs.Family {
	case ecsopt.FamilyIPv4:
		return 32
	case ecsopt.FamilyIPv6:
		return 128
	}
	return 0
}

// who is the client the model resolves a query for.
type who struct {
	addr    netip.Addr // invalid: the client opted out in family 0
	bits    int
	fromECS bool
}

// echoOf is the option answering w at scope.
func (w who) echoOf(scope uint8) ecsopt.ClientSubnet {
	if !w.addr.IsValid() {
		return ecsopt.ClientSubnet{Family: ecsopt.FamilyNone, ScopePrefix: scope}
	}
	cs := modelSubnet(w.addr, w.bits)
	cs.ScopePrefix = scope
	return cs
}

// storedAnswer is the cache entry the model keeps per question: the
// last answer filed. The sequences ask a question again within its
// lifetime only right after asking it, so no other entry can be live.
type storedAnswer struct {
	expires time.Time
	ecs     bool // the answer came back with ECS
	shared  bool // filed for every client
	subnet  ecsopt.ClientSubnet
	bits    int // the effective scope it is filed at
}

type qkey struct {
	name  dnswire.Name
	qtype dnswire.Type
}

// model is a resolver as the definitions describe it.
type model struct {
	p         Profile
	rng       *rand.Rand // the resolver's draws: each hop's ID, then ProbeRandom's
	cursor    int        // MixedV4Bits
	lastProbe map[netip.Addr]time.Time
	coins     map[dnswire.Name]bool
	learned   map[netip.Addr]int
	lastSeen  map[qkey]time.Time
	answers   map[qkey]storedAnswer
}

func newModel(p Profile, seed int64) *model {
	return &model{
		p: p, rng: rand.New(rand.NewSource(seed)),
		lastProbe: map[netip.Addr]time.Time{}, coins: map[dnswire.Name]bool{},
		learned: map[netip.Addr]int{}, lastSeen: map[qkey]time.Time{}, answers: map[qkey]storedAnswer{},
	}
}

// client is §6.3's trust rule: a resolver that accepts client ECS
// resolves for the client's prefix, cut to its ceiling, and honours a
// source of 0 as an opt-out; any other resolves for the sender, an
// IPv4 sender in its IPv4 form whatever socket it came in on.
func (m *model) client(from netip.Addr, opt *ecsopt.ClientSubnet) who {
	if m.p.AcceptClientECS && opt != nil {
		if opt.Family == ecsopt.FamilyNone {
			return who{fromECS: true}
		}
		bits := min(int(opt.SourcePrefix), modelCeiling(m.p, opt.Family == ecsopt.FamilyIPv6))
		p, _ := opt.Addr.Prefix(bits)
		return who{addr: p.Addr(), bits: bits, fromECS: true}
	}
	if from.Is4In6() {
		from = netip.AddrFrom4(from.As4())
	}
	bits := 24
	switch {
	case from.Is4() && m.p.V4SourceBits != 0:
		bits = m.p.V4SourceBits
	case !from.Is4() && m.p.V6SourceBits != 0:
		bits = m.p.V6SourceBits
	case !from.Is4():
		bits = 56
	}
	return who{addr: from, bits: bits}
}

// probed reports whether name is one of the profile's probe names, all
// names when it lists none.
func probed(p Profile, name dnswire.Name) bool {
	for _, n := range p.ProbeNames {
		if n == name {
			return true
		}
	}
	return len(p.ProbeNames) == 0
}

// hop is §6.1 and §6.2 for one upstream query: whether it carries ECS,
// and the option.
func (m *model) hop(auth netip.Addr, zone dnswire.Name, name dnswire.Name, qtype dnswire.Type, now time.Time, withinMinute bool, w who) (bool, ecsopt.ClientSubnet) {
	p := m.p
	if qtype != dnswire.TypeA && qtype != dnswire.TypeAAAA {
		return false, ecsopt.ClientSubnet{} // ECS is for address queries
	}
	if zone == "." && !p.SendECSToRoot {
		return false, ecsopt.ClientSubnet{} // nor is the root asked with it
	}
	inSet := probed(p, name)
	bits := w.bits
	switch p.Probing {
	case ProbeAlways: // every query, to every authority
		if l, ok := m.learned[auth]; ok && p.AdaptSourceToScope {
			bits = min(bits, l)
		}
	case ProbeHostnames: // certain names, every time
		if !inSet {
			return false, ecsopt.ClientSubnet{}
		}
	case ProbeOnMiss: // certain names, never within a minute of the last ask
		if !inSet || withinMinute {
			return false, ecsopt.ClientSubnet{}
		}
	case ProbeInterval: // one query string, once an interval per authority
		if len(p.ProbeNames) > 0 && name != p.ProbeNames[0] {
			return false, ecsopt.ClientSubnet{}
		}
		every := 30 * time.Minute
		if p.Interval != 0 {
			every = p.Interval
		}
		if last, ok := m.lastProbe[auth]; ok && now.Sub(last) < every {
			return false, ecsopt.ClientSubnet{}
		}
		m.lastProbe[auth] = now
		if p.ProbeWithLoopback {
			return true, modelSubnet(netip.MustParseAddr("127.0.0.1"), 32)
		}
	case ProbeRandom: // a random half of names, a random half of their queries
		coin, ok := m.coins[name]
		if !ok {
			coin = m.rng.Intn(2) == 0
			m.coins[name] = coin
		}
		if !coin || m.rng.Float64() >= 0.5 {
			return false, ecsopt.ClientSubnet{}
		}
	default:
		return false, ecsopt.ClientSubnet{}
	}
	switch {
	case p.PrivatePrefixBug:
		return true, modelSubnet(netip.MustParseAddr("10.0.0.0"), 8)
	case !w.addr.IsValid():
		return true, ecsopt.ClientSubnet{Family: ecsopt.FamilyNone}
	}
	jam := p.JamLastByte && w.addr.Is4()
	if len(p.MixedV4Bits) > 0 && w.addr.Is4() {
		bits = p.MixedV4Bits[m.cursor%len(p.MixedV4Bits)]
		m.cursor++
		jam = jam && bits == 32
	}
	if jam {
		a := w.addr.As4()
		a[3] = p.JamValue
		return true, modelSubnet(netip.AddrFrom4(a), 32)
	}
	return true, modelSubnet(w.addr, bits)
}

// answered is what the resolver learns and keeps from an answer at
// scope to a hop that carried opt (attach): an adaptive resolver sends
// the authority no more bits than a shorter scope it answered with, and
// the cache files the answer for the clients RFC 7871 lets it serve.
func (m *model) answered(k qkey, auth netip.Addr, now time.Time, attach bool, opt ecsopt.ClientSubnet, scope uint8, bypass bool) {
	p := m.p
	if attach && p.AdaptSourceToScope && scope > 0 && scope < opt.SourcePrefix {
		if l, ok := m.learned[auth]; !ok || int(scope) < l {
			m.learned[auth] = int(scope)
		}
	}
	if bypass {
		return
	}
	a := storedAnswer{expires: now.Add(5 * time.Second), shared: !attach || p.CacheMode == ecscache.IgnoreScope}
	if attach {
		a.ecs, a.subnet = true, opt
		a.subnet.ScopePrefix = scope
		a.bits = int(scope)
		if p.ClampScopeToSource {
			a.bits = min(a.bits, int(opt.SourcePrefix))
		}
		if p.CacheMode == ecscache.CapScope && opt.Family == ecsopt.FamilyIPv4 {
			a.bits = min(a.bits, int(p.CacheCapBits)) // the paper's /22 ceiling is an IPv4 one
		}
		if p.NoCacheScopeZero && scope == 0 {
			return // dropped
		}
		if opt.Family == ecsopt.FamilyNone {
			a.shared = true // an opt-out's answer names no subnet: as scope 0 does, it serves every client
		}
	}
	m.answers[k] = a
}

// cached returns the live answer w may be served from.
func (m *model) cached(k qkey, now time.Time, w who) (storedAnswer, bool) {
	a, ok := m.answers[k]
	if !ok || !now.Before(a.expires) {
		return storedAnswer{}, false
	}
	if a.shared {
		return a, true
	}
	if !w.addr.IsValid() || a.subnet.Addr.Is4() != w.addr.Is4() {
		return storedAnswer{}, false
	}
	ours, _ := w.addr.Prefix(a.bits)
	theirs, _ := a.subnet.Addr.Prefix(a.bits)
	return a, ours == theirs
}

// step is one client query of a sequence.
type step struct {
	after        time.Duration
	name         dnswire.Name
	qtype        dnswire.Type
	client       int  // index into the family's clients
	ecs, scope   int  // classes
	withinMinute bool // for decide alone
}

// steps is a seeded sequence that visits every (client ECS, scope)
// class pair four times.
func steps(seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	afters := []time.Duration{10 * time.Second, 45 * time.Second, 2 * time.Minute, 31 * time.Minute}
	var out []step
	for i := 0; i < 4*ecsClasses*scopeClasses; i++ {
		s := step{
			after:        afters[rng.Intn(len(afters))],
			name:         modelNames[rng.Intn(len(modelNames))],
			qtype:        dnswire.TypeA,
			client:       rng.Intn(len(modelV4)),
			ecs:          i % ecsClasses,
			scope:        i / ecsClasses % scopeClasses,
			withinMinute: rng.Intn(3) == 0,
		}
		if rng.Intn(4) == 0 {
			s.qtype = dnswire.TypeAAAA
		}
		out = append(out, s)
	}
	return out
}

// authorityFor is the model directory: the authority and zone of name.
func authorityFor(name dnswire.Name) (netip.Addr, dnswire.Name) {
	switch {
	case name.IsSubdomainOf("cdn-d.example."):
		return modelAuthA, "cdn-d.example."
	case name.IsSubdomainOf("other.example."):
		return modelAuthB, "other.example."
	}
	return modelRoot, "."
}

// TestDecideMatchesModel drives identity and decide directly, with
// question types and zones an end-to-end run does not vary: NS and TXT
// queries, and the root.
func TestDecideMatchesModel(t *testing.T) {
	qtypes := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeTXT}
	for _, np := range modelProfiles() {
		for _, family := range []string{"v4", "v6", "4in6"} {
			st, m := newProbeState(11), newModel(np.p, 11)
			now := netem.SimStart
			for i, s := range steps(5) {
				now = now.Add(s.after)
				from := modelClients(family)[s.client]
				qtype := qtypes[i%len(qtypes)]
				q := dnswire.NewQuery(1, s.name, qtype)
				q.EDNS = dnswire.NewEDNS()
				opt := clientOption(np.p, from, s.ecs, i)
				if opt != nil {
					ecsopt.Attach(q, *opt)
				}
				w := m.client(from, opt)
				c := identity(np.p, from, q)
				if c.addr != w.addr || c.bits != w.bits || c.fromECS != w.fromECS {
					t.Fatalf("%s/%s step %d: client %s with %v resolves for %s/%d (from its option: %v), the model for %s/%d (%v)",
						np.name, family, i, from, opt, c.addr, c.bits, c.fromECS, w.addr, w.bits, w.fromECS)
				}
				auth, zone := authorityFor(s.name)
				wantAttach, want := m.hop(auth, zone, s.name, qtype, now, s.withinMinute, w)
				d := decide(np.p, &st, input{auth: auth, zone: zone, q: q.Question(), now: now, withinMinute: s.withinMinute, client: c})
				if d.attach != wantAttach || d.opt != want {
					t.Fatalf("%s/%s step %d: %s %v in %s from %s: decided %v %v, the model %v %v", np.name, family, i, s.name, qtype, zone, from, d.attach, d.opt, wantAttach, want)
				}
				scope := modelScope(s.scope, want.SourcePrefix, optWidth(want))
				if wantAttach && np.p.AdaptSourceToScope && scope > 0 && scope < want.SourcePrefix {
					st.learn(auth, int(scope))
				}
				m.answered(qkey{s.name, qtype}, auth, now, wantAttach, want, scope, false)
			}
		}
	}
}

// scopedAuthority is every authority of a resolver under test: it
// answers an address query with one record that lives 5 s and echoes the
// query's option at the scope class the step in progress chose, and it
// logs what it was sent.
type scopedAuthority struct {
	scope int
	log   []upstream
}

// upstream is one query the resolver sent.
type upstream struct {
	to     netip.Addr
	id     uint16
	hasECS bool
	opt    ecsopt.ClientSubnet
}

func (u upstream) String() string {
	return fmt.Sprintf("{to %s id %d ecs %v %v}", u.to, u.id, u.hasECS, u.opt)
}

func (a *scopedAuthority) Exchange(_, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	cs, has, err := ecsopt.FromMessage(q)
	if err != nil {
		return nil, 0, err
	}
	a.log = append(a.log, upstream{to, q.ID, has, cs})
	resp := dnswire.NewResponse(q)
	qn := q.Question()
	rr := dnswire.RR{Name: qn.Name, Class: dnswire.ClassINET, TTL: 5, Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.80")}}
	if qn.Type == dnswire.TypeAAAA {
		rr.Data = &dnswire.AAAARData{Addr: netip.MustParseAddr("2001:db8::80")}
	}
	resp.Answers = []dnswire.RR{rr}
	if has {
		ecsopt.Attach(resp, cs.WithScope(int(modelScope(a.scope, cs.SourcePrefix, optWidth(cs)))))
	}
	return resp, 0, nil
}

// outcome is what one client query did, as the client and the
// authorities saw it.
type outcome struct {
	hit    bool
	up     []upstream
	echoed bool
	echo   ecsopt.ClientSubnet
}

func (o outcome) String() string {
	return fmt.Sprintf("hit=%v upstream=%v echo=%v (%v)", o.hit, o.up, o.echo, o.echoed)
}

// runResolver runs a sequence through a resolver of profile p, each
// client query asked twice in a row, as a dnsserver asks: first without
// waiting, then with, when the first declined.
func runResolver(p Profile, family string, seq []step) []outcome {
	clk := netem.NewClock(netem.SimStart)
	auth := &scopedAuthority{}
	dir := NewDirectory()
	dir.Add("cdn-d.example.", modelAuthA)
	dir.Add("other.example.", modelAuthB)
	dir.Add(".", modelRoot)
	r := New(Config{Addr: modelResolver, Transport: auth, Now: clk.Now, Directory: dir, Profile: p, Seed: 11})
	var out []outcome
	for i, s := range seq {
		clk.Advance(s.after)
		from := modelClients(family)[s.client]
		for range 2 {
			q := dnswire.NewQuery(uint16(i), s.name, s.qtype)
			q.EDNS = dnswire.NewEDNS()
			if opt := clientOption(p, from, s.ecs, i); opt != nil {
				ecsopt.Attach(q, *opt)
			}
			auth.scope, auth.log = s.scope, nil
			resp := new(dnswire.Message)
			o := outcome{hit: r.ServeDNS(from, q, resp, false)}
			if !o.hit {
				r.ServeDNS(from, q, resp, true)
			}
			o.up = auth.log
			o.echo, o.echoed, _ = ecsopt.FromMessage(resp)
			out = append(out, o)
		}
	}
	return out
}

// modelRun is runResolver's sequence as the model answers it.
func modelRun(p Profile, family string, seq []step) []outcome {
	m := newModel(p, 11)
	now := netem.SimStart
	var out []outcome
	for i, s := range seq {
		now = now.Add(s.after)
		from := modelClients(family)[s.client]
		k := qkey{s.name, s.qtype}
		for range 2 {
			w := m.client(from, clientOption(p, from, s.ecs, i))
			last, seen := m.lastSeen[k]
			m.lastSeen[k] = now
			withinMinute := seen && now.Sub(last) < time.Minute
			bypass := p.Probing == ProbeHostnames && probed(p, s.name) // re-asked every time
			var o outcome
			if a, ok := m.cached(k, now, w); ok && !bypass {
				o.hit = true
				if a.ecs {
					o.echo, o.echoed = w.echoOf(a.subnet.ScopePrefix), true
				}
				out = append(out, o)
				continue
			}
			auth, zone := authorityFor(s.name)
			id := uint16(m.rng.Intn(1 << 16))
			attach, opt := m.hop(auth, zone, s.name, s.qtype, now, withinMinute, w)
			o.up = []upstream{{to: auth, id: id, hasECS: attach}}
			var scope uint8
			if attach {
				o.up[0].opt = opt
				scope = modelScope(s.scope, opt.SourcePrefix, optWidth(opt))
				o.echo, o.echoed = w.echoOf(scope), true
			}
			m.answered(k, auth, now, attach, opt, scope, bypass)
			out = append(out, o)
		}
	}
	return out
}

// TestResolverMatchesModel runs every profile end to end, in each client
// family, and holds each client query's upstream query (its ID
// included: the draws keep their order), its echo and whether the cache
// answered it to the model's.
func TestResolverMatchesModel(t *testing.T) {
	seq := steps(9)
	hits, echoes := 0, 0
	for _, np := range modelProfiles() {
		for _, family := range []string{"v4", "v6", "4in6"} {
			got, want := runResolver(np.p, family, seq), modelRun(np.p, family, seq)
			for i := range want {
				if want[i].hit {
					hits++
				}
				if want[i].echoed {
					echoes++
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					s := seq[i/2]
					t.Fatalf("%s/%s query %d (%s %v from %s, client ECS class %d, scope class %d):\n got  %v\n want %v",
						np.name, family, i, s.name, s.qtype, modelClients(family)[s.client], s.ecs, s.scope, got[i], want[i])
				}
			}
		}
	}
	if total := len(modelProfiles()) * 3 * 2 * len(seq); hits == 0 || hits == total || echoes == 0 {
		t.Fatalf("%d of %d queries hit and %d echoed: the sequences leave a path unexercised", hits, total, echoes)
	}
	t.Logf("%d of %d queries hit the cache; %d echoed an option", hits, len(modelProfiles())*3*2*len(seq), echoes)
}

// TestResolverFamilyMetamorphic: a 4-in-6 client is its IPv4 self, so
// its run is the IPv4 run, query for query; and an IPv6 run reads no
// IPv4 policy, so changing every IPv4 knob leaves it as it was.
func TestResolverFamilyMetamorphic(t *testing.T) {
	seq := steps(13)
	for _, np := range modelProfiles() {
		if v4, mapped := runResolver(np.p, "v4", seq), runResolver(np.p, "4in6", seq); !reflect.DeepEqual(v4, mapped) {
			t.Errorf("%s: the 4-in-6 run differs from the IPv4 run", np.name)
		}
		other := np.p
		other.V4SourceBits, other.MaxClientECSBits = 9, 9
		other.MixedV4Bits, other.JamLastByte, other.JamValue = []int{9, 31}, !other.JamLastByte, 0x7f
		if v6, v6other := runResolver(np.p, "v6", seq), runResolver(other, "v6", seq); !reflect.DeepEqual(v6, v6other) {
			t.Errorf("%s: an IPv6 run changed with the IPv4 source policy", np.name)
		}
	}
}
