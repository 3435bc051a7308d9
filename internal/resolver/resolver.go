// Package resolver implements a recursive DNS resolver with complete,
// configurable ECS behavior: probing strategies, source-prefix policies,
// scope-aware caching, and every deviant behavior class the paper
// observes in the wild. It also provides the forwarder and hidden-
// resolver roles that sit between end hosts and egress resolvers.
package resolver

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
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

// FailureCounters tracks how the resolver behaved under upstream
// failure; experiments and the chaos harness read it to verify that no
// query outcome goes unaccounted.
type FailureCounters struct {
	// UpstreamRetries counts re-attempts after a failed upstream
	// exchange.
	UpstreamRetries int64
	// UpstreamFailures counts resolutions that exhausted every attempt.
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

// Resolver is an egress recursive resolver.
type Resolver struct {
	cfg   Config
	cache *ecscache.Cache
	// fill is cfg.Pool when it is a fillPool.
	fill fillPool

	mu        sync.Mutex
	rng       *rand.Rand
	mixedIdx  int
	lastProbe map[netip.Addr]time.Time    // ProbeInterval state per authority
	lastSeen  map[ecscache.Key]*time.Time // ProbeOnMiss recency window, updated in place (see count)
	randNames map[dnswire.Name]bool       // ProbeRandom per-name coin flips
	adapted   map[netip.Addr]int          // AdaptSourceToScope learned bits
	// Upstream counters let experiments measure query amplification.
	upstreamQueries int64
	clientQueries   int64
	failures        FailureCounters
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
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		lastProbe: make(map[netip.Addr]time.Time),
		lastSeen:  make(map[ecscache.Key]*time.Time),
		randNames: make(map[dnswire.Name]bool),
		adapted:   make(map[netip.Addr]int),
	}
}

// Addr returns the resolver's egress address.
func (r *Resolver) Addr() netip.Addr { return r.cfg.Addr }

// Cache exposes the resolver's cache for measurement.
func (r *Resolver) Cache() *ecscache.Cache { return r.cache }

// Counters returns (client queries served, upstream queries sent).
func (r *Resolver) Counters() (client, upstream int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clientQueries, r.upstreamQueries
}

// Failures returns a snapshot of the failure-path counters.
func (r *Resolver) Failures() FailureCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failures
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
	clientAddr, clientBits, _ := r.clientIdentity(from, query)
	e, ok := r.cache.Hit(key, clientAddr, now)
	if !ok {
		return false
	}
	r.count(key, now, true)
	reply(resp, query)
	answerFromEntry(resp, &e, e.RemainingTTL(now), clientAddr, clientBits)
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

	// Establish the client identity this query resolves for.
	clientAddr, clientBits, fromClientECS := r.clientIdentity(from, query)
	withinMinute := r.count(key, now, false)
	bypassCache := r.bypassCache(q.Name)

	if !bypassCache {
		if e, ok := r.cache.Lookup(key, clientAddr, now); ok {
			answerFromEntry(resp, &e, e.RemainingTTL(now), clientAddr, clientBits)
			return
		}
	}

	// Miss: resolve upstream. Concurrent misses for the same
	// (question, client prefix at clientBits) would each fan a query out
	// to the authority — the ECS-multiplied thundering herd §7 costs
	// out — so identical in-flight resolutions coalesce onto one leader
	// through the cache's singleflight layer. The leader alone inserts;
	// waiters share its result. Coalescing is keyed on the masked client
	// prefix because clients behind different prefixes legitimately need
	// different upstream answers.
	fetch := func() (upstreamResult, error) {
		return r.resolveUpstream(q, key, now, withinMinute, clientAddr, clientBits, bypassCache)
	}
	var (
		res upstreamResult
		err error
	)
	if bypassCache {
		res, err = fetch()
	} else {
		flightPrefix := netip.PrefixFrom(ecsopt.MaskAddr(clientAddr, clientBits), clientBits)
		res, _, err = ecscache.Do(r.cache, key, flightPrefix, fetch)
	}
	if err != nil {
		if errors.Is(err, errNoAuthority) {
			resp.RCode, resp.EDNS = dnswire.RCodeServFail, nil
			return
		}
		r.answerFailure(resp, key, clientAddr, clientBits, now)
		return
	}

	// Answer the client, in resp's own sections: the records are the
	// cache's.
	resp.RCode = res.rcode
	resp.Answers = append(resp.Answers, res.answers...)
	resp.Authorities = append(resp.Authorities, res.authority...)
	if resp.EDNS != nil && res.respHas && (fromClientECS || res.sentECS) {
		scope := 0
		if res.hasECS {
			scope = int(res.respScope)
		}
		echo(resp, clientAddr, clientBits, scope)
	}
}

// reply makes resp the skeleton of the resolver's answer to query.
func reply(resp, query *dnswire.Message) {
	resp.SetReply(query)
	resp.RecursionAvailable = true
}

// count books one client query: the client-query counter and, under
// ProbeOnMiss, the name's last-seen time. It reports whether the name
// was last seen less than a minute before now. borrowed says key's name
// is a view of a query a dnsserver read loop lends (ServeDNS without
// mayWait), which the next datagram rewrites: a name not seen before is
// stored as a copy. A name seen before has its time updated in place,
// since assigning to the map stores the key again, name and all.
func (r *Resolver) count(key ecscache.Key, now time.Time, borrowed bool) (withinMinute bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clientQueries++
	if r.cfg.Profile.Probing == ProbeOnMiss {
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
	}
	return withinMinute
}

// bypassCache reports whether name is one ProbeHostnames re-queries
// every time instead of answering from the cache.
func (r *Resolver) bypassCache(name dnswire.Name) bool {
	return r.cfg.Profile.Probing == ProbeHostnames && r.isProbeName(name)
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
func (r *Resolver) resolveUpstream(q dnswire.Question, key ecscache.Key, now time.Time, withinMinute bool, clientAddr netip.Addr, clientBits int, bypassCache bool) (upstreamResult, error) {
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
		id := r.randUint16() // drawn before ProbeRandom's coin flips, which share the generator
		hopQ := dnswire.Question{Name: target, Type: q.Type, Class: q.Class}
		attach, probeSubnet := r.ecsDecision(authAddr, zone, hopQ, now, withinMinute, clientAddr, clientBits)
		hopSent := ecsopt.ClientSubnet{}
		hopSentECS := false
		if attach {
			hopSent = probeSubnet
			hopSentECS = true
		}
		up := ws.hopQuery(id, target, q, attach, hopSent)
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
			sent, sentECS = hopSent, hopSentECS
			// Learn coarser authoritative scopes for future queries.
			if r.cfg.Profile.AdaptSourceToScope && hopSentECS &&
				hopECS.ScopePrefix > 0 && hopECS.ScopePrefix < hopSent.SourcePrefix {
				r.mu.Lock()
				if cur, ok := r.adapted[authAddr]; !ok || int(hopECS.ScopePrefix) < cur {
					r.adapted[authAddr] = int(hopECS.ScopePrefix)
				}
				r.mu.Unlock()
			}
		} else if hop == 0 {
			sent, sentECS = hopSent, hopSentECS
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
			r.mu.Lock()
			r.failures.UpstreamRetries++
			r.mu.Unlock()
		}
		r.mu.Lock()
		r.upstreamQueries++
		r.mu.Unlock()
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
			r.countFailure(func(f *FailureCounters) { f.UpstreamMismatched++ })
			lastErr = errUpstreamMismatch
		case upResp.Truncated:
			r.countFailure(func(f *FailureCounters) { f.UpstreamTruncated++ })
			lastErr = errUpstreamTruncated
		case upResp.RCode == dnswire.RCodeServFail:
			r.countFailure(func(f *FailureCounters) { f.UpstreamServFails++ })
			lastErr = errUpstreamServFail
		default:
			return upResp, nil
		}
	}
	r.countFailure(func(f *FailureCounters) { f.UpstreamFailures++ })
	return nil, lastErr
}

func (r *Resolver) countFailure(bump func(*FailureCounters)) {
	r.mu.Lock()
	bump(&r.failures)
	r.mu.Unlock()
}

// answerFailure handles an exhausted upstream resolution: serve a
// stale-but-valid cached answer when one is available (RFC 8767),
// otherwise degrade to SERVFAIL.
func (r *Resolver) answerFailure(resp *dnswire.Message, key ecscache.Key, clientAddr netip.Addr, clientBits int, now time.Time) {
	if e, ok := r.cache.LookupStale(key, clientAddr, now, maxStale); ok {
		r.countFailure(func(f *FailureCounters) { f.ServedStale++ })
		answerFromEntry(resp, &e, staleTTL, clientAddr, clientBits)
		return
	}
	r.countFailure(func(f *FailureCounters) { f.ServFailsReturned++ })
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

// clientIdentity derives (address, prefix bits, clientSuppliedECS) for an
// incoming query per the profile's trust settings.
func (r *Resolver) clientIdentity(from netip.Addr, query *dnswire.Message) (netip.Addr, int, bool) {
	p := r.cfg.Profile
	if p.AcceptClientECS {
		if cs, present, err := ecsopt.FromMessage(query); present && err == nil && !cs.IsZero() {
			bits := int(cs.SourcePrefix)
			if bits > p.maxClientBits() {
				bits = p.maxClientBits()
			}
			return ecsopt.MaskAddr(cs.Addr, bits), bits, true
		}
	}
	// Sender-derived: the immediate source of the query is the client as
	// far as this resolver can tell (this is exactly how hidden-resolver
	// prefixes leak into ECS). An IPv4 client of a dual-stack listener
	// arrives 4-in-6; unmapped, it meets the IPv4 prefix policies.
	from = from.Unmap()
	return from, r.cfg.Profile.sourceBits(from.Is6()), false
}

// ecsDecision applies the probing strategy for one upstream query,
// returning whether to attach ECS and the option to attach.
func (r *Resolver) ecsDecision(auth netip.Addr, zone dnswire.Name, q dnswire.Question, now time.Time, withinMinute bool, clientAddr netip.Addr, clientBits int) (bool, ecsopt.ClientSubnet) {
	p := r.cfg.Profile
	if zone == dnswire.Root && !p.SendECSToRoot {
		return false, ecsopt.ClientSubnet{}
	}
	if q.Type != dnswire.TypeA && q.Type != dnswire.TypeAAAA && !p.SendECSForAllTypes {
		return false, ecsopt.ClientSubnet{}
	}
	switch p.Probing {
	case ProbeNever:
		return false, ecsopt.ClientSubnet{}
	case ProbeWhitelist:
		for _, z := range p.ECSZoneWhitelist {
			if zone == z {
				return true, r.adaptedSubnet(auth, clientAddr, clientBits)
			}
		}
		return false, ecsopt.ClientSubnet{}
	case ProbeAlways:
		return true, r.adaptedSubnet(auth, clientAddr, clientBits)
	case ProbeHostnames:
		if r.isProbeName(q.Name) {
			return true, r.buildSubnet(clientAddr, clientBits)
		}
		return false, ecsopt.ClientSubnet{}
	case ProbeOnMiss:
		if r.isProbeName(q.Name) && !withinMinute {
			return true, r.buildSubnet(clientAddr, clientBits)
		}
		return false, ecsopt.ClientSubnet{}
	case ProbeInterval:
		r.mu.Lock()
		last, seen := r.lastProbe[auth]
		due := !seen || now.Sub(last) >= r.interval()
		if due {
			r.lastProbe[auth] = now
		}
		r.mu.Unlock()
		if !due {
			return false, ecsopt.ClientSubnet{}
		}
		if r.isProbeString(q.Name) {
			return true, r.probeSubnet(clientAddr, clientBits)
		}
		// Not the probe string: release the slot we just took.
		r.mu.Lock()
		if seen {
			r.lastProbe[auth] = last
		} else {
			delete(r.lastProbe, auth)
		}
		r.mu.Unlock()
		return false, ecsopt.ClientSubnet{}
	case ProbeRandom:
		r.mu.Lock()
		chosen, ok := r.randNames[q.Name]
		if !ok {
			chosen = r.rng.Intn(2) == 0
			r.randNames[q.Name] = chosen
		}
		frac := p.RandomECSFraction
		if frac == 0 {
			frac = 0.5
		}
		fire := chosen && r.rng.Float64() < frac
		r.mu.Unlock()
		if fire {
			return true, r.buildSubnet(clientAddr, clientBits)
		}
		return false, ecsopt.ClientSubnet{}
	}
	return false, ecsopt.ClientSubnet{}
}

func (r *Resolver) interval() time.Duration {
	if r.cfg.Profile.Interval == 0 {
		return 30 * time.Minute
	}
	return r.cfg.Profile.Interval
}

// isProbeName reports whether name is in the profile's probe set (empty
// set = all names).
func (r *Resolver) isProbeName(name dnswire.Name) bool {
	if len(r.cfg.Profile.ProbeNames) == 0 {
		return true
	}
	for _, n := range r.cfg.Profile.ProbeNames {
		if n == name {
			return true
		}
	}
	return false
}

// isProbeString reports whether name is the single interval-probe query
// string.
func (r *Resolver) isProbeString(name dnswire.Name) bool {
	if len(r.cfg.Profile.ProbeNames) == 0 {
		return true
	}
	return r.cfg.Profile.ProbeNames[0] == name
}

// adaptedSubnet builds the client subnet, lowering the prefix to any
// per-authority learned scope (AdaptSourceToScope).
func (r *Resolver) adaptedSubnet(auth netip.Addr, clientAddr netip.Addr, bits int) ecsopt.ClientSubnet {
	if r.cfg.Profile.AdaptSourceToScope {
		r.mu.Lock()
		learned, ok := r.adapted[auth]
		r.mu.Unlock()
		if ok && learned > 0 && learned < bits {
			bits = learned
		}
	}
	return r.buildSubnet(clientAddr, bits)
}

// buildSubnet constructs the ECS option for a client-derived prefix per
// the profile's prefix policy.
func (r *Resolver) buildSubnet(clientAddr netip.Addr, bits int) ecsopt.ClientSubnet {
	p := r.cfg.Profile
	if p.PrivatePrefixBug {
		return ecsopt.MustNew(PrivateProbeAddr, 8)
	}
	jam := p.JamLastByte
	if len(p.MixedV4Bits) > 0 && clientAddr.Is4() {
		r.mu.Lock()
		bits = p.MixedV4Bits[r.mixedIdx%len(p.MixedV4Bits)]
		r.mixedIdx++
		r.mu.Unlock()
		jam = p.JamLastByte && bits == 32
		if !jam {
			cs, err := ecsopt.New(clientAddr, bits)
			if err != nil {
				return ecsopt.Zero()
			}
			return cs
		}
	}
	if jam && clientAddr.Is4() {
		a := ecsopt.MaskAddr(clientAddr, 24).As4()
		a[3] = p.JamValue
		return ecsopt.MustNew(netip.AddrFrom4(a), 32)
	}
	cs, err := ecsopt.New(clientAddr, bits)
	if err != nil {
		return ecsopt.Zero()
	}
	return cs
}

// probeSubnet constructs the option used by interval probes.
func (r *Resolver) probeSubnet(clientAddr netip.Addr, bits int) ecsopt.ClientSubnet {
	p := r.cfg.Profile
	switch {
	case p.ProbeWithLoopback:
		return ecsopt.MustNew(LoopbackAddr, 32)
	case p.ProbeWithOwnAddr:
		return ecsopt.MustNew(r.cfg.Addr, 24)
	default:
		return r.buildSubnet(clientAddr, bits)
	}
}

// answerFromEntry fills reply skeleton resp with a cache entry's answer,
// every record's TTL set to ttl, and, when the reply carries EDNS and the
// entry ECS, the client's subnet echoed at the entry's scope. The
// records are copied into resp's own sections and their TTLs set there:
// the entry, whose records other entries may share, is only read.
func answerFromEntry(resp *dnswire.Message, e *ecscache.Entry, ttl uint32, clientAddr netip.Addr, clientBits int) {
	resp.RCode = e.RCode
	resp.Answers = append(resp.Answers, e.Answer...)
	resp.Authorities = append(resp.Authorities, e.Authority...)
	setTTL(resp.Answers, ttl)
	setTTL(resp.Authorities, ttl)
	if resp.EDNS != nil && e.HasECS {
		echo(resp, clientAddr, clientBits, int(e.Subnet.ScopePrefix))
	}
}

// echo attaches the ECS option answering the client's subnet at scope.
func echo(resp *dnswire.Message, clientAddr netip.Addr, clientBits, scope int) {
	if cs, err := ecsopt.New(clientAddr, clientBits); err == nil {
		ecsopt.AttachInPlace(resp, cs.WithScope(scope))
	}
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

func (r *Resolver) randUint16() uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint16(r.rng.Intn(1 << 16))
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
