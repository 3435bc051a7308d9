// Package scanner implements the paper's active measurement machinery:
// the IPv4-scan probe with per-target hostname encoding (so the
// experimental authoritative nameserver can associate ingress resolvers
// with the egress resolvers they use), ECS-support detection, hidden-
// resolver prefix discovery, and the two-query cache-behavior
// methodology of §6.3 with its behavior classification.
package scanner

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// EncodeProbeName embeds the probed ingress address into a hostname
// under zone, following the technique of Dagon et al. the paper uses:
// "p-1-2-3-4.<zone>". It fails when the zone is too long to take the
// probe label — a config error that must not kill a long-running scan,
// so it is reported rather than panicking.
func EncodeProbeName(target netip.Addr, zone dnswire.Name) (dnswire.Name, error) {
	label := make([]byte, 0, len("p-255-255-255-255"))
	label = append(label, 'p')
	for _, octet := range target.As4() {
		label = append(label, '-')
		label = strconv.AppendUint(label, uint64(octet), 10)
	}
	n, err := zone.Prepend(string(label))
	if err != nil {
		return "", fmt.Errorf("scanner: bad probe zone %q: %w", zone, err)
	}
	return n, nil
}

// DecodeProbeName recovers the probed address from a probe hostname.
func DecodeProbeName(name dnswire.Name) (netip.Addr, bool) {
	labels := name.Labels()
	if len(labels) == 0 {
		return netip.Addr{}, false
	}
	l := labels[0]
	if !strings.HasPrefix(l, "p-") {
		return netip.Addr{}, false
	}
	parts := strings.Split(l[2:], "-")
	if len(parts) != 4 {
		return netip.Addr{}, false
	}
	var b [4]byte
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return netip.Addr{}, false
		}
		b[i] = byte(v)
	}
	return netip.AddrFrom4(b), true
}

// Combo is one (forwarder, hidden prefix, egress resolver) combination,
// the unit of the §8.2 analysis.
type Combo struct {
	Forwarder    netip.Addr
	HiddenPrefix netip.Prefix
	Egress       netip.Addr
}

// Result is the outcome of a scan.
type Result struct {
	// Probed is how many ingress addresses were probed.
	Probed int
	// Responding are the open ingress resolvers that answered.
	Responding []netip.Addr
	// IngressToEgress maps each responding ingress to the egress
	// resolver(s) observed at the authoritative server.
	IngressToEgress map[netip.Addr][]netip.Addr
	// ECSEgress is the set of egress resolvers whose queries carried
	// ECS.
	ECSEgress map[netip.Addr]bool
	// EgressSourceBits records the source prefix lengths per ECS
	// egress.
	EgressSourceBits map[netip.Addr]map[uint8]bool
	// HiddenCombos are combinations where the conveyed ECS prefix
	// covers neither the probed ingress nor the egress — evidence of a
	// hidden resolver.
	HiddenCombos []Combo
}

// Scan drives probe queries against a population of ingress resolvers
// and reads the experimental authority's logs to associate ingresses
// with egresses. The Exchange closure decouples it from any specific
// transport; probes go one at a time, as the in-process fabric answers
// each before Exchange returns.
type Scan struct {
	// Exchange sends one DNS query to a target and returns its response.
	Exchange Exchange
	// Zone is the scan zone served by the experimental authority.
	Zone dnswire.Name
	// Seed drives probe transaction IDs; 0 seeds from the system's
	// entropy (dnsclient.RandomSeed). Chaos and replay harnesses set it
	// for reproducible campaigns.
	Seed int64

	rng *rand.Rand
}

// Exchange sends query to a target and returns the response: the one
// transport shape of Scan and Prober.
type Exchange func(to netip.Addr, query *dnswire.Message) (*dnswire.Message, error)

// randID allocates a probe transaction ID from the scan's RNG. Random
// IDs (rather than a wrapping counter) keep IDs from colliding
// predictably on scans of more than 65 535 targets and deny off-path
// responders a guessable sequence.
func (s *Scan) randID() uint16 {
	if s.rng == nil {
		seed := s.Seed
		if seed == 0 {
			seed = dnsclient.RandomSeed()
		}
		s.rng = rand.New(rand.NewSource(seed))
	}
	return uint16(s.rng.Intn(1 << 16))
}

// Run probes every ingress in turn with a hostname-encoded query (no
// ECS, per the paper's methodology), then interprets the authority log
// records that arrived during the scan. Each response is validated
// against its own query's ID and question; mismatches (spoofed or
// crossed responses) do not count as responding, and neither does an
// ingress whose probe name the zone cannot take.
func (s *Scan) Run(ingresses []netip.Addr, logs *LogBuffer) Result {
	res := Result{
		Probed:           len(ingresses),
		IngressToEgress:  make(map[netip.Addr][]netip.Addr),
		ECSEgress:        make(map[netip.Addr]bool),
		EgressSourceBits: make(map[netip.Addr]map[uint8]bool),
	}
	mark := logs.Len()
	for _, ing := range ingresses {
		probeName, err := EncodeProbeName(ing, s.Zone)
		if err != nil {
			continue
		}
		q := dnswire.NewQuery(s.randID(), probeName, dnswire.TypeA)
		resp, err := s.Exchange(ing, q)
		if err == nil && resp != nil && resp.Response && resp.ID == q.ID &&
			len(resp.Questions) > 0 && resp.Questions[0] == q.Questions[0] &&
			resp.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0 {
			res.Responding = append(res.Responding, ing)
		}
	}
	slices.SortFunc(res.Responding, netip.Addr.Compare)

	// Interpret the authoritative view.
	for _, rec := range logs.Since(mark) {
		ing, ok := DecodeProbeName(rec.Name)
		if !ok {
			continue
		}
		egress := rec.Resolver
		if !slices.Contains(res.IngressToEgress[ing], egress) {
			res.IngressToEgress[ing] = append(res.IngressToEgress[ing], egress)
		}
		if !rec.QueryHasECS {
			continue
		}
		res.ECSEgress[egress] = true
		if res.EgressSourceBits[egress] == nil {
			res.EgressSourceBits[egress] = make(map[uint8]bool)
		}
		res.EgressSourceBits[egress][rec.QueryECS.SourcePrefix] = true

		// Hidden-resolver detection: the ECS prefix covers neither the
		// ingress nor the egress.
		cs := rec.QueryECS
		bits := int(cs.SourcePrefix)
		if bits > 24 {
			bits = 24 // resolvers report hidden info at /24 granularity
		}
		if !cs.Covers(ing, bits) && !cs.Covers(egress, bits) && cs.IsRoutable() {
			res.HiddenCombos = append(res.HiddenCombos, Combo{
				Forwarder:    ing,
				HiddenPrefix: netip.PrefixFrom(ecsopt.MaskAddr(cs.Addr, bits), bits),
				Egress:       egress,
			})
		}
	}
	return res
}

// LogBuffer is a concurrency-safe accumulator of authority log records,
// installable as an authority.Server log sink.
type LogBuffer struct {
	mu   sync.Mutex
	recs []authority.LogRecord
}

// Append implements the authority log callback.
func (b *LogBuffer) Append(rec authority.LogRecord) {
	b.mu.Lock()
	b.recs = append(b.recs, rec)
	b.mu.Unlock()
}

// Len returns the current record count (a position marker).
func (b *LogBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Since returns a copy of the records appended at or after mark.
func (b *LogBuffer) Since(mark int) []authority.LogRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]authority.LogRecord, len(b.recs)-mark)
	copy(out, b.recs[mark:])
	return out
}

// All returns a copy of every record.
func (b *LogBuffer) All() []authority.LogRecord { return b.Since(0) }
