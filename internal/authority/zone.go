package authority

import (
	"fmt"
	"sync"

	"ecsdns/internal/dnswire"
)

// recordKey indexes zone data by owner name and type.
type recordKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// Zone holds the records for one DNS zone. It is safe for concurrent
// reads after setup; mutation and serving from different goroutines needs
// external coordination only if records change while serving (tests and
// experiments set zones up first).
type Zone struct {
	Origin dnswire.Name
	SOA    dnswire.SOARData
	// DefaultTTL applies to records added without an explicit TTL and to
	// synthesized wildcard answers.
	DefaultTTL uint32

	mu       sync.RWMutex
	records  map[recordKey][]dnswire.RR
	names    map[dnswire.Name]bool
	wildcard map[dnswire.Type]dnswire.RData
}

// NewZone creates an empty zone with a synthetic SOA.
func NewZone(origin dnswire.Name, defaultTTL uint32) *Zone {
	z := &Zone{
		Origin:     origin,
		DefaultTTL: defaultTTL,
		SOA: dnswire.SOARData{
			MName:   mustPrepend(origin, "ns1"),
			RName:   mustPrepend(origin, "hostmaster"),
			Serial:  2019030100,
			Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 60,
		},
		records:  make(map[recordKey][]dnswire.RR),
		names:    make(map[dnswire.Name]bool),
		wildcard: make(map[dnswire.Type]dnswire.RData),
	}
	return z
}

func mustPrepend(origin dnswire.Name, label string) dnswire.Name {
	n, err := origin.Prepend(label)
	if err != nil {
		panic(fmt.Sprintf("authority: bad origin %q: %v", origin, err))
	}
	return n
}

// Add inserts a record; owner names outside the zone are rejected.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("authority: %s is outside zone %s", rr.Name, z.Origin)
	}
	if rr.TTL == 0 {
		rr.TTL = z.DefaultTTL
	}
	if rr.Class == 0 {
		rr.Class = dnswire.ClassINET
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := recordKey{name: rr.Name, typ: rr.Type()}
	z.records[k] = append(z.records[k], rr)
	z.names[rr.Name] = true
	return nil
}

// MustAdd is Add for static setup; it panics on error.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// SetWildcard makes the zone synthesize rdata for every in-zone name of
// the given type that has no explicit records — the behavior the scan
// experiment's authoritative nameserver needs for its per-probe unique
// hostnames.
func (z *Zone) SetWildcard(t dnswire.Type, data dnswire.RData) {
	z.mu.Lock()
	z.wildcard[t] = data
	z.mu.Unlock()
}

// lookupResult is the zone-level answer classification.
type lookupResult int

const (
	lookupHit      lookupResult = iota // records found
	lookupNoData                       // name exists, no records of the type
	lookupNXDomain                     // name does not exist
)

// lookup resolves one (name, type) against zone data, following CNAME
// chains inside the zone. It appends the records to place in the answer
// section (including any chased CNAMEs) to answer, a reply's section,
// and returns the extended slice and the classification; only a hit's
// records are meant for the reply.
func (z *Zone) lookup(answer []dnswire.RR, name dnswire.Name, t dnswire.Type) ([]dnswire.RR, lookupResult) {
	z.mu.RLock()
	defer z.mu.RUnlock()

	base := len(answer)
	cur := name
	for hop := 0; hop < 8; hop++ {
		// Every owner of records is in names, so a name that is not has
		// none: it goes straight to the wildcard.
		if z.names[cur] {
			if rrs, ok := z.records[recordKey{name: cur, typ: t}]; ok {
				answer = append(answer, rrs...)
				return answer, lookupHit
			}
			// CNAME at the owner redirects any type except CNAME itself.
			if t != dnswire.TypeCNAME {
				if cn, ok := z.records[recordKey{name: cur, typ: dnswire.TypeCNAME}]; ok && len(cn) > 0 {
					answer = append(answer, cn[0])
					target := cn[0].Data.(*dnswire.CNAMERData).Target
					if !target.IsSubdomainOf(z.Origin) {
						// Chain leaves the zone; the resolver chases it.
						return answer, lookupHit
					}
					cur = target
					continue
				}
			}
			return answer, lookupNoData
		}
		if data, ok := z.wildcard[t]; ok && cur.IsSubdomainOf(z.Origin) {
			answer = append(answer, dnswire.RR{
				Name: cur, Class: dnswire.ClassINET, TTL: z.DefaultTTL, Data: data,
			})
			return answer, lookupHit
		}
		if len(answer) > base {
			// Mid-chain dead end: return what we have.
			return answer, lookupHit
		}
		return answer, lookupNXDomain
	}
	return answer, lookupHit
}

// soaRR returns the zone's SOA as a resource record for authority
// sections.
func (z *Zone) soaRR() dnswire.RR {
	soa := z.SOA // copy: the RR must not alias the zone's live SOA struct
	return dnswire.RR{
		Name: z.Origin, Class: dnswire.ClassINET, TTL: z.SOA.Minimum, Data: &soa,
	}
}
