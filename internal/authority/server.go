// Package authority implements the authoritative-nameserver side of the
// study: zone serving, ECS answer tailoring with per-resolver
// whitelisting, configurable scope policies (including the scan
// experiment's scope = source−4 rule), dynamic CDN-backed answers, and
// query logging for the passive datasets.
package authority

import (
	"net/netip"
	"sync"
	"time"

	"ecsdns/internal/cdn"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// ScopeFunc computes the response scope prefix from a query's ECS option.
type ScopeFunc func(cs ecsopt.ClientSubnet) uint8

// ScopeFixed always returns n.
func ScopeFixed(n uint8) ScopeFunc {
	return func(ecsopt.ClientSubnet) uint8 { return n }
}

// ScopeEcho returns the query's source prefix length.
func ScopeEcho() ScopeFunc {
	return func(cs ecsopt.ClientSubnet) uint8 { return cs.SourcePrefix }
}

// ScopeSourceMinus returns max(source−d, 0): the scan experiment's
// authoritative nameserver used d = 4.
func ScopeSourceMinus(d uint8) ScopeFunc {
	return func(cs ecsopt.ClientSubnet) uint8 {
		if cs.SourcePrefix <= d {
			return 0
		}
		return cs.SourcePrefix - d
	}
}

// LogRecord is one query/response observation, the unit of the passive
// datasets.
type LogRecord struct {
	Time     time.Time
	Resolver netip.Addr
	Name     dnswire.Name
	Type     dnswire.Type
	// Query-side ECS.
	QueryHasECS bool
	QueryECS    ecsopt.ClientSubnet
	ECSInvalid  bool
	// Response-side ECS.
	RespHasECS bool
	RespScope  uint8
	RCode      dnswire.RCode
}

// DynamicFunc lets a server answer some names computationally (CDN
// mapping, CNAME flattening). It returns ok=false to fall through to
// static zone data. scope is meaningful only when the server is speaking
// ECS for this query; usedECS reports whether the client subnet
// influenced the answer. The records are copied into the response, so
// the hook may hand out a slice it keeps. Behind a dnsserver, on a
// server without a log sink, it runs on the goroutine that read the
// query, as ServeDNS does, so it must not wait on anything: a slow hook
// stalls every query behind it.
type DynamicFunc func(q dnswire.Question, ecs ecsopt.ClientSubnet, hasECS bool, from netip.Addr) (rrs []dnswire.RR, scope uint8, usedECS, ok bool)

// Config parameterizes a Server.
type Config struct {
	// Addr is the server's address on the simulated network.
	Addr netip.Addr
	// ECSEnabled turns on ECS processing. Disabled servers silently
	// ignore the option (no option in responses), which is also how
	// whitelisting servers treat non-whitelisted resolvers.
	ECSEnabled bool
	// Whitelist, when non-nil, restricts ECS processing to resolvers it
	// approves (the major CDN's behavior).
	Whitelist func(netip.Addr) bool
	// Scope computes response scopes for ECS answers from static zone
	// data; dynamic answers carry their own scope. Defaults to
	// ScopeEcho.
	Scope ScopeFunc
	// Strict controls ECS option validation: strict servers answer
	// FORMERR on malformed options per the RFC; lenient servers mask
	// and continue.
	Strict bool
	// RawScope disables the server-side clamp of scope to the query's
	// source prefix, letting the Scope function return RFC-violating
	// scopes — the experimental authority uses this to test resolver
	// clamping.
	RawScope bool
	// Now supplies virtual time for log records; defaults to a zero
	// time.
	Now func() time.Time
}

// Server is an authoritative nameserver. It implements netem.Handler and
// is also usable behind a real dnsserver.
type Server struct {
	cfg     Config
	mu      sync.RWMutex
	zones   []*Zone
	dynamic DynamicFunc
	log     func(LogRecord)
}

// NewServer creates a server with the given config.
func NewServer(cfg Config) *Server {
	if cfg.Scope == nil {
		cfg.Scope = ScopeEcho()
	}
	return &Server{cfg: cfg}
}

// AddZone attaches a zone.
func (s *Server) AddZone(z *Zone) {
	s.mu.Lock()
	s.zones = append(s.zones, z)
	s.mu.Unlock()
}

// SetDynamic installs the computational answer hook.
func (s *Server) SetDynamic(f DynamicFunc) {
	s.mu.Lock()
	s.dynamic = f
	s.mu.Unlock()
}

// SetLog installs a query-log sink. The sink is called for every query
// answered, concurrently when the server is queried concurrently, so it
// must synchronize its own state (scanner.LogBuffer.Append does). It may
// block: with a sink installed, ServeDNS declines every query it may not
// wait on, so behind a dnsserver the sink runs on the workers, never on
// the read loop.
func (s *Server) SetLog(f func(LogRecord)) {
	s.mu.Lock()
	s.log = f
	s.mu.Unlock()
}

// zoneFor returns the most specific of zones containing name.
func zoneFor(zones []*Zone, name dnswire.Name) *Zone {
	var best *Zone
	for _, z := range zones {
		if name.IsSubdomainOf(z.Origin) {
			if best == nil || z.Origin.CountLabels() > best.Origin.CountLabels() {
				best = z
			}
		}
	}
	return best
}

// HandleDNS implements the full authoritative answer path, in a response
// of its own: see ServeDNS.
func (s *Server) HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message {
	resp := new(dnswire.Message)
	s.ServeDNS(from, query, resp, true)
	return resp
}

// ServeDNS fills resp, which may be a reply refilled query after query,
// with the answer to query, and implements dnsserver.FillHandler: zone
// and dynamic records are appended to its sections, never shared with
// the zone. It reads the server's zones, hook and sink under one read
// lock, and reads the clock only when a sink will receive the record.
// Nothing in it waits but the dynamic hook, which must not, and the log
// sink, which may (a daemon's writes to stdout do): so without mayWait
// and with a sink installed it declines, changing nothing, and reports
// false, and dnsserver's read loop never waits on the sink. The query
// is borrowed, names and all: the record a sink receives holds a copy
// of the name.
func (s *Server) ServeDNS(from netip.Addr, query, resp *dnswire.Message, mayWait bool) bool {
	s.mu.RLock()
	zones, dyn, log := s.zones, s.dynamic, s.log
	s.mu.RUnlock()
	if !mayWait && log != nil {
		return false
	}

	// EDNS negotiation: SetReply echoes an OPT when the query carried one.
	resp.SetReply(query)
	if query.OpCode != dnswire.OpQuery {
		resp.RCode, resp.EDNS = dnswire.RCodeNotImp, nil
		return true
	}
	if len(query.Questions) != 1 {
		resp.RCode, resp.EDNS = dnswire.RCodeFormErr, nil
		return true
	}
	q := query.Question()

	if query.EDNS != nil && query.EDNS.Version > 0 {
		resp.RCode = dnswire.RCodeBadVers
		return true
	}

	rec := LogRecord{
		Resolver: from,
		Name:     q.Name,
		Type:     q.Type,
	}
	if log != nil {
		// The sink keeps the record, and the query's name is borrowed.
		rec.Name = q.Name.Clone()
		if s.cfg.Now != nil {
			rec.Time = s.cfg.Now()
		}
	}

	// ECS extraction.
	var (
		clientSubnet ecsopt.ClientSubnet
		hasECS       bool
	)
	if query.EDNS != nil {
		if opt, ok := query.EDNS.Option(dnswire.OptionCodeECS); ok {
			rec.QueryHasECS = true
			cs, err := ecsopt.Decode(opt)
			if err != nil {
				if s.cfg.Strict {
					rec.ECSInvalid = true
					emit(log, rec)
					resp.RCode = dnswire.RCodeFormErr
					return true
				}
				cs, err = ecsopt.DecodeLenient(opt)
				if err != nil {
					rec.ECSInvalid = true
					emit(log, rec)
					resp.RCode = dnswire.RCodeFormErr
					return true
				}
			}
			if err := ecsopt.ValidateQuery(cs); err != nil && s.cfg.Strict {
				rec.ECSInvalid = true
				emit(log, rec)
				resp.RCode = dnswire.RCodeFormErr
				return true
			}
			clientSubnet = cs
			hasECS = true
			rec.QueryECS = cs
		}
	}

	// Does this server speak ECS to this resolver?
	speaksECS := s.cfg.ECSEnabled && hasECS
	if speaksECS && s.cfg.Whitelist != nil && !s.cfg.Whitelist(from) {
		speaksECS = false
	}

	// Dynamic answers first (CDN mapping, flattening).
	if dyn != nil {
		ecsForDyn := clientSubnet
		hasForDyn := hasECS && speaksECS
		if rrs, scope, usedECS, ok := dyn(q, ecsForDyn, hasForDyn, from); ok {
			resp.Authoritative = true
			resp.Answers = append(resp.Answers, rrs...)
			if speaksECS {
				respScope := scope
				if !usedECS {
					respScope = 0
				}
				ecsopt.AttachInPlace(resp, clientSubnet.WithScope(int(respScope)))
				rec.RespHasECS = true
				rec.RespScope = respScope
			}
			rec.RCode = resp.RCode
			emit(log, rec)
			return true
		}
	}

	z := zoneFor(zones, q.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		rec.RCode = resp.RCode
		emit(log, rec)
		return true
	}
	resp.Authoritative = true
	answer, result := z.lookup(resp.Answers, q.Name, q.Type)
	switch result {
	case lookupHit:
		resp.Answers = answer
	case lookupNoData:
		resp.Authorities = append(resp.Authorities, z.soaRR())
	case lookupNXDomain:
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authorities = append(resp.Authorities, z.soaRR())
	}

	if speaksECS {
		// Address and NS queries are the tailored types; everything
		// else answers with scope 0 per the RFC's guidance.
		var scope uint8
		if q.Type == dnswire.TypeA || q.Type == dnswire.TypeAAAA {
			scope = s.cfg.Scope(clientSubnet)
			if !s.cfg.RawScope && int(scope) > int(clientSubnet.SourcePrefix) {
				// A scope longer than the source is a server-side RFC
				// violation; keep the server honest by clamping here.
				// (Resolver-side clamping is exercised via RawScope.)
				scope = clientSubnet.SourcePrefix
			}
		}
		ecsopt.AttachInPlace(resp, clientSubnet.WithScope(int(scope)))
		rec.RespHasECS = true
		rec.RespScope = scope
	}
	rec.RCode = resp.RCode
	emit(log, rec)
	return true
}

// emit hands rec to the query-log sink, when one is installed.
func emit(log func(LogRecord), rec LogRecord) {
	if log != nil {
		log(rec)
	}
}

// NewCDNServer wires a Server whose A/AAAA answers under the given name
// suffix come from a CDN mapping policy. ttl is the answer TTL (the
// paper's CDN uses 20 seconds).
func NewCDNServer(cfg Config, suffix dnswire.Name, policy *cdn.Policy, ttl uint32) *Server {
	s := NewServer(cfg)
	z := NewZone(suffix, ttl)
	s.AddZone(z)
	s.SetDynamic(func(q dnswire.Question, cs ecsopt.ClientSubnet, hasECS bool, from netip.Addr) ([]dnswire.RR, uint8, bool, bool) {
		if q.Type != dnswire.TypeA && q.Type != dnswire.TypeAAAA {
			return nil, 0, false, false
		}
		if !q.Name.IsSubdomainOf(suffix) {
			return nil, 0, false, false
		}
		res := policy.Select(cdn.MapQuery{ECS: cs, HasECS: hasECS, Resolver: from})
		rrs := make([]dnswire.RR, 0, len(res.Edges))
		for _, e := range res.Edges {
			if q.Type == dnswire.TypeA && e.Addr.Is4() {
				rrs = append(rrs, dnswire.RR{
					Name: q.Name, Class: dnswire.ClassINET, TTL: ttl,
					Data: &dnswire.ARData{Addr: e.Addr},
				})
			}
			if q.Type == dnswire.TypeAAAA && e.Addr.Is6() {
				rrs = append(rrs, dnswire.RR{
					Name: q.Name, Class: dnswire.ClassINET, TTL: ttl,
					Data: &dnswire.AAAARData{Addr: e.Addr},
				})
			}
		}
		return rrs, res.Scope, res.UsedECS, true
	})
	return s
}
