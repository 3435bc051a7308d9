// Package resolver implements a recursive DNS resolver with complete,
// configurable ECS behavior: probing strategies, source-prefix policies,
// scope-aware caching, and every deviant behavior class the paper
// observes in the wild. It also provides the forwarder and hidden-
// resolver roles that sit between end hosts and egress resolvers.
package resolver

import (
	"errors"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/stats"
)

// Transport moves DNS messages between simulation nodes; netem.Network
// implements it.
type Transport interface {
	Exchange(from, to netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error)
}

// PoolTransport is the multi-upstream transport satisfied by
// upstreams.Pool: the pool picks the destination (and handles
// failover, hedging, and payload fallback) itself, so no destination
// address is passed.
type PoolTransport interface {
	Exchange(from netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error)
}

// fillPool is a PoolTransport that can decode an answer into a Message
// it is given, as upstreams.Pool.ExchangeInto does; the answer it
// returns is that Message or one of its own.
type fillPool interface {
	ExchangeInto(from netip.Addr, query, resp *dnswire.Message) (*dnswire.Message, time.Duration, error)
}

// Directory maps zone suffixes to authoritative server addresses. It
// stands in for full iterative resolution: the experiments care about the
// resolver↔authority ECS interaction, not NS discovery.
type Directory struct {
	mu    sync.RWMutex
	zones map[dnswire.Name]netip.Addr
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{zones: make(map[dnswire.Name]netip.Addr)}
}

// Add registers the authoritative address for a zone.
func (d *Directory) Add(zone dnswire.Name, addr netip.Addr) {
	d.mu.Lock()
	d.zones[zone] = addr
	d.mu.Unlock()
}

// Lookup returns the authority for the most specific zone containing
// name.
func (d *Directory) Lookup(name dnswire.Name) (netip.Addr, dnswire.Name, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var (
		bestZone dnswire.Name
		bestAddr netip.Addr
		found    bool
	)
	for zone, addr := range d.zones {
		if name.IsSubdomainOf(zone) {
			if !found || zone.CountLabels() > bestZone.CountLabels() {
				bestZone, bestAddr, found = zone, addr, true
			}
		}
	}
	return bestAddr, bestZone, found
}

// Config assembles a Resolver.
type Config struct {
	// Addr is the resolver's egress address.
	Addr netip.Addr
	// Transport carries upstream queries.
	Transport Transport
	// Pool, when set, routes upstream queries through a resilient
	// multi-upstream pool instead of Transport. The pool owns failover,
	// hedging, and truncation fallback, so the resolver runs no retry
	// loop of its own above it. A pool that can decode an answer into a
	// Message it is given (upstreams.Pool) decodes into the resolution's
	// own.
	Pool PoolTransport
	// Now supplies (virtual) time.
	Now func() time.Time
	// Directory locates authoritative servers.
	Directory *Directory
	// Profile is the ECS behavior profile.
	Profile Profile
	// Seed drives the resolver's private randomness (IDs, ProbeRandom).
	Seed int64
	// CacheEntries bounds the resolver cache's resident entries; over the
	// bound, least-recently-used entries are evicted. Zero means
	// unbounded (the pre-production default, used by the unbounded §7
	// blow-up experiments).
	CacheEntries int
	// CacheShards spreads the cache across independently locked shards
	// for concurrent serving. Zero or one means a single shard.
	CacheShards int
	// NegativeTTL caps the cache lifetime of negative (non-NoError)
	// answers; zero applies the cache's 30s default.
	NegativeTTL time.Duration
	// MinTTL / MaxTTL clamp cached positive lifetimes into a floor and
	// every lifetime under a ceiling, the ceiling winning. Zero disables
	// each clamp.
	MinTTL time.Duration
	MaxTTL time.Duration
}

// staleTTL is the TTL stamped on records served stale, per the RFC 8767
// recommendation that stale answers carry a short positive TTL.
const staleTTL = 30

// maxStale bounds how long past expiry an entry remains servable as
// stale when every upstream attempt fails (RFC 8767).
const maxStale = time.Hour

// FailureCounters is a snapshot of how the resolver behaved under
// upstream failure; cmd/recursor prints it, and the chaos tests read it
// to verify that no query outcome goes unaccounted.
type FailureCounters struct {
	// UpstreamRetries counts re-attempts after a failed upstream
	// exchange.
	UpstreamRetries int64
	// UpstreamFailures counts client queries whose upstream resolution
	// exhausted every attempt, a query coalesced onto another's failed
	// resolution among them.
	UpstreamFailures int64
	// UpstreamTruncated / UpstreamMismatched / UpstreamServFails break
	// failed attempts down by cause (truncated response, transaction-ID
	// mismatch, SERVFAIL answer).
	UpstreamTruncated  int64
	UpstreamMismatched int64
	UpstreamServFails  int64
	// ServedStale counts client answers served from expired cache
	// entries after upstream failure.
	ServedStale int64
	// ServFailsReturned counts SERVFAIL answers sent to clients because
	// upstream failed and no stale entry was usable.
	ServFailsReturned int64
}

// Check returns nil when every client query whose resolution failed was
// answered stale or SERVFAIL, and otherwise an error with the numbers.
func (f FailureCounters) Check() error {
	return stats.Partition("UpstreamFailures = ServedStale + ServFailsReturned",
		f.UpstreamFailures, f.ServedStale, f.ServFailsReturned)
}

// Resolver is an egress recursive resolver.
type Resolver struct {
	cfg   Config
	cache *ecscache.Cache
	// fill is cfg.Pool when it is a fillPool.
	fill fillPool

	mu       sync.Mutex
	probe    probeState                  // what the ECS decision changes (decide)
	lastSeen map[ecscache.Key]*time.Time // ProbeOnMiss recency window, updated in place (see count)

	// The counters, written without mu. Upstream against client queries
	// is the query amplification experiments measure; failures are
	// FailureCounters' fields, in order.
	clientQueries, upstreamQueries atomic.Int64
	failures                       struct {
		retries, exhausted, truncated, mismatched, servFails, stale, servFailsReturned atomic.Int64
	}
}

// New creates a resolver from cfg.
func New(cfg Config) *Resolver {
	if cfg.Now == nil {
		panic("resolver: Config.Now is required")
	}
	fill, _ := cfg.Pool.(fillPool)
	return &Resolver{
		cfg:  cfg,
		fill: fill,
		cache: ecscache.New(ecscache.Config{
			Mode:               cfg.Profile.CacheMode,
			CapBits:            cfg.Profile.CacheCapBits,
			ClampScopeToSource: cfg.Profile.ClampScopeToSource,
			NegativeTTL:        cfg.NegativeTTL,
			MinTTL:             cfg.MinTTL,
			MaxTTL:             cfg.MaxTTL,
			Shards:             cfg.CacheShards,
			MaxEntries:         cfg.CacheEntries,
		}),
		probe:    newProbeState(cfg.Seed),
		lastSeen: make(map[ecscache.Key]*time.Time),
	}
}

// Addr returns the resolver's egress address.
func (r *Resolver) Addr() netip.Addr { return r.cfg.Addr }

// Cache exposes the resolver's cache for measurement.
func (r *Resolver) Cache() *ecscache.Cache { return r.cache }

// Counters returns (client queries served, upstream queries sent).
func (r *Resolver) Counters() (client, upstream int64) {
	return r.clientQueries.Load(), r.upstreamQueries.Load()
}

// Failures snapshots the failure-path counters.
func (r *Resolver) Failures() FailureCounters {
	f := &r.failures
	return FailureCounters{
		UpstreamRetries:    f.retries.Load(),
		UpstreamFailures:   f.exhausted.Load(),
		UpstreamTruncated:  f.truncated.Load(),
		UpstreamMismatched: f.mismatched.Load(),
		UpstreamServFails:  f.servFails.Load(),
		ServedStale:        f.stale.Load(),
		ServFailsReturned:  f.servFailsReturned.Load(),
	}
}

// HandleDNS serves one client query, in a response of its own: see
// ServeDNS. It implements netem.Handler.
func (r *Resolver) HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message {
	resp := new(dnswire.Message)
	r.ServeDNS(from, query, resp, true)
	return resp
}

// ServeDNS answers one client query in resp (cache, ECS policy, upstream
// resolution) and implements dnsserver.FillHandler. resp may be a reply
// refilled query after query: records are appended to its sections,
// never shared with the cache.
//
// With mayWait set it always answers, waiting upstream on a miss. With
// it unset it waits on nothing but the resolver's and the cache's locks,
// which is what lets dnsserver run it on the goroutine that read the
// query: it answers a query the cache answers and a malformed one, and
// declines any other, a miss or a name ProbeHostnames never serves from
// the cache, returning false having changed neither resp nor any
// counter, so the query is counted once, when it is asked again with
// mayWait set.
func (r *Resolver) ServeDNS(from netip.Addr, query, resp *dnswire.Message, mayWait bool) bool {
	if formErr(query, resp) {
		return true
	}
	if mayWait {
		r.resolve(from, query, resp)
		return true
	}
	q := query.Question()
	if r.bypassCache(q.Name) {
		return false
	}
	now := r.cfg.Now()
	key := ecscache.KeyOf(q)
	c := identity(r.cfg.Profile, from, query)
	e, ok := r.cache.Hit(key, c.addr, now)
	if !ok {
		return false
	}
	r.count(key, now, true)
	reply(resp, query)
	answerFromEntry(resp, &e, e.RemainingTTL(now), c)
	return true
}

// formErr answers a query the resolver cannot serve, one that is not a
// standard query of one question, FORMERR in resp, and reports whether
// it did.
func formErr(query, resp *dnswire.Message) bool {
	if query.OpCode == dnswire.OpQuery && len(query.Questions) == 1 {
		return false
	}
	reply(resp, query)
	resp.RCode, resp.EDNS = dnswire.RCodeFormErr, nil
	return true
}

// resolve answers a well-formed query from the cache, counting the
// lookup, or else resolves it upstream. Behind a dnsserver it serves
// what ServeDNS declined on the read loop, and its lookup still answers
// a hit: a resolution in flight may have filled the entry since.
func (r *Resolver) resolve(from netip.Addr, query, resp *dnswire.Message) {
	reply(resp, query)
	q := query.Question()
	now := r.cfg.Now()
	key := ecscache.KeyOf(q)

	c := identity(r.cfg.Profile, from, query)
	withinMinute := r.count(key, now, false)
	bypassCache := r.bypassCache(q.Name)

	if !bypassCache {
		if e, ok := r.cache.Lookup(key, c.addr, now); ok {
			answerFromEntry(resp, &e, e.RemainingTTL(now), c)
			return
		}
	}

	// Miss: resolve upstream. Concurrent misses for the same
	// (question, client prefix at c.bits) would each fan a query out
	// to the authority — the ECS-multiplied thundering herd §7 costs
	// out — so identical in-flight resolutions coalesce onto one leader
	// through the cache's singleflight layer. The leader alone inserts;
	// waiters share its result. Coalescing is keyed on the masked client
	// prefix because clients behind different prefixes legitimately need
	// different upstream answers.
	fetch := func() (upstreamResult, error) {
		return r.resolveUpstream(q, key, now, withinMinute, c, bypassCache)
	}
	var (
		res upstreamResult
		err error
	)
	if bypassCache {
		res, err = fetch()
	} else {
		flightPrefix := netip.PrefixFrom(ecsopt.MaskAddr(c.addr, c.bits), c.bits)
		res, _, err = ecscache.Do(r.cache, key, flightPrefix, fetch)
	}
	if err != nil {
		if errors.Is(err, errNoAuthority) {
			resp.RCode, resp.EDNS = dnswire.RCodeServFail, nil
			return
		}
		r.answerFailure(resp, key, c, now)
		return
	}

	// Answer the client, in resp's own sections: the records are the
	// cache's.
	resp.RCode = res.rcode
	resp.Answers = append(resp.Answers, res.answers...)
	resp.Authorities = append(resp.Authorities, res.authority...)
	if resp.EDNS != nil && res.respHas && (c.fromECS || res.sentECS) {
		scope := 0
		if res.hasECS {
			scope = int(res.respScope)
		}
		echo(resp, c, scope)
	}
}

// reply makes resp the skeleton of the resolver's answer to query.
func reply(resp, query *dnswire.Message) {
	resp.SetReply(query)
	resp.RecursionAvailable = true
}

// count books one client query: the client-query counter and, under
// ProbeOnMiss, the name's last-seen time, which alone takes mu. It
// reports whether the name was last seen less than a minute before now.
// borrowed says key's name is a view of a query a dnsserver read loop
// lends (ServeDNS without mayWait), which the next datagram rewrites: a
// name not seen before is stored as a copy. A name seen before has its
// time updated in place, since assigning to the map stores the key
// again, name and all.
func (r *Resolver) count(key ecscache.Key, now time.Time, borrowed bool) (withinMinute bool) {
	r.clientQueries.Add(1)
	if r.cfg.Profile.Probing != ProbeOnMiss {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if last, ok := r.lastSeen[key]; ok {
		withinMinute = now.Sub(*last) < time.Minute
		*last = now
		return withinMinute
	}
	if borrowed {
		key.Name = dnswire.Name(strings.Clone(string(key.Name)))
	}
	last := new(time.Time) // not &now, which would put now on the heap on every call
	*last = now
	r.lastSeen[key] = last
	return false
}

// bypassCache reports whether name is one ProbeHostnames re-queries
// every time instead of answering from the cache.
func (r *Resolver) bypassCache(name dnswire.Name) bool {
	return r.cfg.Profile.Probing == ProbeHostnames && r.cfg.Profile.isProbeName(name)
}

// errNoAuthority marks a resolution that failed before any upstream
// exchange because no authority is known for the name; it degrades to
// SERVFAIL without the serve-stale path (there is nothing to be stale
// relative to).
var errNoAuthority = errors.New("resolver: no authority known for name")

// upstreamResult is the outcome of one upstream resolution, shaped so
// singleflight waiters can answer their own clients from the leader's
// fetch: response content plus the ECS facts the client echo needs. The
// records are the ones the cache stored, or a copy of the resolution's
// own when the cache did not store them, and nothing writes them.
type upstreamResult struct {
	answers   []dnswire.RR
	authority []dnswire.RR
	rcode     dnswire.RCode
	// respHas records that the final authority answered with ECS at all;
	// hasECS that the cached entry carries a subnet; respScope the
	// authoritative scope echoed to clients.
	respHas   bool
	hasECS    bool
	sentECS   bool
	respScope uint8
}

// resolution is the memory one upstream resolution builds each hop's
// query in and, over a fillPool, decodes each hop's answer into. It goes
// back to resolutions when the resolution ends, so nothing the
// resolution returns or caches may point into it: the cache copies what
// it keeps (ecscache.Insert), and the resolution copies the rest
// (dnswire.AppendClones).
type resolution struct {
	query, answer dnswire.Message
	opt           dnswire.EDNS // the query's OPT record
}

var resolutions = sync.Pool{New: func() any { return new(resolution) }}

// hopQuery makes ws.query the upstream query for q at target: a fresh
// ID, no recursion, and an OPT record of ws's own advertising 4096
// bytes, which carries the client subnet when attach is set. ws.answer
// is given the same question: an answer repeats it, and a decode keeps
// a name the Message already holds (dnswire.UnpackInto), so the
// answer's names cost nothing.
func (ws *resolution) hopQuery(id uint16, target dnswire.Name, q dnswire.Question, attach bool, cs ecsopt.ClientSubnet) *dnswire.Message {
	up := &ws.query
	up.Header = dnswire.Header{ID: id}
	up.Questions = append(up.Questions[:0], dnswire.Question{Name: target, Type: q.Type, Class: dnswire.ClassINET})
	ws.answer.Questions = append(ws.answer.Questions[:0], up.Questions[0])
	ws.opt = dnswire.EDNS{UDPSize: 4096, Options: ws.opt.Options[:0]}
	up.EDNS = &ws.opt
	if attach {
		ecsopt.AttachInPlace(up, cs)
	}
	return up
}

// resolveUpstream runs the upstream resolution loop for one question,
// chasing CNAME chains that leave the answering zone (the www→CDN
// redirection path of §8.4), and populates the cache with the outcome.
// It is the singleflight fetch body: exactly one caller per coalesced
// herd executes it.
//
// The last hop's answer is read where it was decoded, in ws.answer, and
// handed to Insert on loan: the cache copies what it keeps, only when no
// list neighbour holds the same records, and what the client and the
// coalesced waiters get is the cache's. Three paths copy for themselves:
// a CNAME chain owns each hop before the next one decodes over it, and an
// answer the cache does not take, bypassed or under NoCacheScopeZero or
// rejected, is copied out before ws goes back to the pool.
func (r *Resolver) resolveUpstream(q dnswire.Question, key ecscache.Key, now time.Time, withinMinute bool, c client, bypassCache bool) (upstreamResult, error) {
	ws := resolutions.Get().(*resolution)
	defer resolutions.Put(ws)
	var (
		answers   []dnswire.RR
		chain     []dnswire.RR // the hops before this one, owned
		authority []dnswire.RR
		rcode     dnswire.RCode
		sent      ecsopt.ClientSubnet
		sentECS   bool
		respECS   ecsopt.ClientSubnet
		respHas   bool
	)
	target := q.Name
	for hop := 0; hop < 8; hop++ {
		authAddr, zone, ok := r.cfg.Directory.Lookup(target)
		if !ok {
			return upstreamResult{}, errNoAuthority
		}
		in := input{auth: authAddr, zone: zone, q: dnswire.Question{Name: target, Type: q.Type, Class: q.Class},
			now: now, withinMinute: withinMinute, client: c}
		r.mu.Lock()
		id := uint16(r.probe.rng.Intn(1 << 16)) // drawn before ProbeRandom's, which share the generator
		d := decide(r.cfg.Profile, &r.probe, in)
		r.mu.Unlock()
		up := ws.hopQuery(id, target, q, d.attach, d.opt)
		upResp, err := r.exchangeUpstream(authAddr, up, &ws.answer)
		if err != nil {
			return upstreamResult{}, err
		}
		// Extract the authoritative scope, leniently: misbehaving
		// servers are part of the ecosystem under test.
		hopECS, hopHas, decodeErr := extractLenient(upResp)
		if decodeErr != nil {
			hopHas = false
		}
		answers, authority = upResp.Answers, upResp.Authorities
		if len(chain) > 0 {
			answers = append(chain, answers...)
		}
		rcode = upResp.RCode
		if hopHas {
			respECS, respHas = hopECS, true
			sent, sentECS = d.opt, d.attach
			// Learn coarser authoritative scopes for future queries.
			if r.cfg.Profile.AdaptSourceToScope && d.attach &&
				hopECS.ScopePrefix > 0 && hopECS.ScopePrefix < d.opt.SourcePrefix {
				r.mu.Lock()
				r.probe.learn(authAddr, int(hopECS.ScopePrefix))
				r.mu.Unlock()
			}
		} else if hop == 0 {
			sent, sentECS = d.opt, d.attach
		}
		next, dangling := danglingCNAME(answers, q.Type)
		if !dangling || rcode != dnswire.RCodeNoError {
			break
		}
		chain = dnswire.AppendClones(chain, upResp.Answers) // before the next hop decodes over them
		target = next
	}

	// Populate the cache. Empty (negative) answers live for the SOA
	// minimum from the authority section, per RFC 2308.
	entry := ecscache.Entry{
		Answer:    answers,
		Authority: authority,
		RCode:     rcode,
		Expiry:    ecscache.TTLBound(now, answers, negativeTTL(authority)),
	}
	if respHas && sentECS {
		entry.HasECS = true
		entry.Subnet = sent.WithScope(int(respECS.ScopePrefix))
	}
	skipCache := bypassCache ||
		(r.cfg.Profile.NoCacheScopeZero && entry.HasECS && respECS.ScopePrefix == 0)
	stored := false
	if !skipCache {
		if a, au, ok := r.cache.Insert(key, entry, now); ok {
			answers, authority, stored = a, au, true
		}
	}
	if !stored {
		answers, authority = dnswire.AppendClones(nil, answers), dnswire.AppendClones(nil, authority)
	}

	return upstreamResult{
		answers:   answers,
		authority: authority,
		rcode:     rcode,
		respHas:   respHas,
		hasECS:    entry.HasECS,
		sentECS:   sentECS,
		respScope: respECS.ScopePrefix,
	}, nil
}

// Upstream-attempt failures beyond transport errors.
var (
	errUpstreamDropped   = errors.New("resolver: upstream returned no response")
	errUpstreamMismatch  = errors.New("resolver: upstream transaction ID mismatch")
	errUpstreamTruncated = errors.New("resolver: upstream response truncated")
	errUpstreamServFail  = errors.New("resolver: upstream answered SERVFAIL")
)

// exchangeUpstream sends one upstream query with bounded retries,
// treating transport errors, missing or corrupted (ID-mismatched)
// responses, truncation, and SERVFAIL answers as retryable failures. A
// fillPool decodes the answer into into, where it is valid until the
// next exchange; any other transport's is its own Message.
func (r *Resolver) exchangeUpstream(authAddr netip.Addr, up, into *dnswire.Message) (*dnswire.Message, error) {
	var lastErr error
	for attempt := 0; attempt <= r.retries(); attempt++ {
		if attempt > 0 {
			r.failures.retries.Add(1)
		}
		r.upstreamQueries.Add(1)
		var upResp *dnswire.Message
		var err error
		switch {
		case r.fill != nil:
			upResp, _, err = r.fill.ExchangeInto(r.cfg.Addr, up, into)
		case r.cfg.Pool != nil:
			upResp, _, err = r.cfg.Pool.Exchange(r.cfg.Addr, up)
		default:
			upResp, _, err = r.cfg.Transport.Exchange(r.cfg.Addr, authAddr, up)
		}
		switch {
		case err != nil:
			lastErr = err
		case upResp == nil:
			lastErr = errUpstreamDropped
		case upResp.ID != up.ID:
			r.failures.mismatched.Add(1)
			lastErr = errUpstreamMismatch
		case upResp.Truncated:
			r.failures.truncated.Add(1)
			lastErr = errUpstreamTruncated
		case upResp.RCode == dnswire.RCodeServFail:
			r.failures.servFails.Add(1)
			lastErr = errUpstreamServFail
		default:
			return upResp, nil
		}
	}
	return nil, lastErr
}

// answerFailure answers a query whose upstream resolution failed, its
// own or the one it was coalesced onto: with a stale-but-valid cached
// answer when one is available (RFC 8767), otherwise SERVFAIL.
func (r *Resolver) answerFailure(resp *dnswire.Message, key ecscache.Key, c client, now time.Time) {
	r.failures.exhausted.Add(1)
	if e, ok := r.cache.LookupStale(key, c.addr, now, maxStale); ok {
		r.failures.stale.Add(1)
		answerFromEntry(resp, &e, staleTTL, c)
		return
	}
	r.failures.servFailsReturned.Add(1)
	resp.RCode, resp.EDNS = dnswire.RCodeServFail, nil
}

// Sweep collects the cache entries that at now are past serving even
// as stale answers — expired for maxStale or longer — and returns how
// many it removed. An insert collects only under the name it touches,
// so without a periodic Sweep an unbounded cache keeps the entries of a
// name never resolved again for the life of the process.
func (r *Resolver) Sweep(now time.Time) int {
	return r.cache.PurgeExpired(now.Add(-maxStale))
}

// answerFromEntry fills reply skeleton resp with a cache entry's answer,
// every record's TTL set to ttl, and, when the reply carries EDNS and the
// entry ECS, the client's subnet echoed at the entry's scope. The
// records are copied into resp's own sections and their TTLs set there:
// the entry, whose records other entries may share, is only read.
func answerFromEntry(resp *dnswire.Message, e *ecscache.Entry, ttl uint32, c client) {
	resp.RCode = e.RCode
	resp.Answers = append(resp.Answers, e.Answer...)
	resp.Authorities = append(resp.Authorities, e.Authority...)
	setTTL(resp.Answers, ttl)
	setTTL(resp.Authorities, ttl)
	if resp.EDNS != nil && e.HasECS {
		echo(resp, c, int(e.Subnet.ScopePrefix))
	}
}

// echo attaches the ECS option answering the client's subnet at scope:
// the family-0 option for a client that opted out with one.
func echo(resp *dnswire.Message, c client, scope int) {
	cs := ecsopt.Zero()
	if c.addr.IsValid() {
		var err error
		if cs, err = ecsopt.New(c.addr, c.bits); err != nil {
			return
		}
	}
	ecsopt.AttachInPlace(resp, cs.WithScope(scope))
}

// setTTL sets the TTL of every record in rrs.
func setTTL(rrs []dnswire.RR, ttl uint32) {
	for i := range rrs {
		rrs[i].TTL = ttl
	}
}

// danglingCNAME returns the target of the last CNAME in answers that is
// not itself answered by a record of the wanted type, if any.
func danglingCNAME(answers []dnswire.RR, want dnswire.Type) (dnswire.Name, bool) {
	if want == dnswire.TypeCNAME {
		return "", false
	}
	answered := map[dnswire.Name]bool{}
	for _, rr := range answers {
		if rr.Type() == want {
			answered[rr.Name] = true
		}
	}
	for i := len(answers) - 1; i >= 0; i-- {
		if cn, ok := answers[i].Data.(*dnswire.CNAMERData); ok {
			if !answered[cn.Target] {
				return cn.Target, true
			}
			return "", false
		}
	}
	return "", false
}

// retries returns the upstream retry budget: 2 additional attempts
// after a failed one, or none with a pool attached — failover, hedging,
// and truncation fallback already happen inside the pool, and stacking
// the resolver's own retry loop on top would multiply every fault's
// cost.
func (r *Resolver) retries() int {
	if r.cfg.Pool != nil {
		return 0
	}
	return 2
}

// negativeTTL derives the negative-caching lifetime from the SOA record
// in an authority section (RFC 2308: min of SOA TTL and SOA minimum),
// defaulting to 30 seconds when no SOA is present.
func negativeTTL(authority []dnswire.RR) time.Duration {
	for _, rr := range authority {
		if soa, ok := rr.Data.(*dnswire.SOARData); ok {
			secs := soa.Minimum
			if rr.TTL < secs {
				secs = rr.TTL
			}
			return time.Duration(secs) * time.Second
		}
	}
	return 30 * time.Second
}

// extractLenient pulls the ECS option out of a response without failing
// on in-the-wild malformations.
func extractLenient(m *dnswire.Message) (ecsopt.ClientSubnet, bool, error) {
	if m.EDNS == nil {
		return ecsopt.ClientSubnet{}, false, nil
	}
	opt, ok := m.EDNS.Option(dnswire.OptionCodeECS)
	if !ok {
		return ecsopt.ClientSubnet{}, false, nil
	}
	cs, err := ecsopt.DecodeLenient(opt)
	if err != nil {
		return ecsopt.ClientSubnet{}, true, err
	}
	return cs, true, nil
}
