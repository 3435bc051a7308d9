package dnsserver

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SlipNone disables RRL slips when assigned to RRLConfig.Slip: every
// refused query is dropped silently. The zero value keeps the default
// slip cadence of 2.
const SlipNone = -1

// RRLConfig configures response-rate limiting: a token bucket per
// client prefix, refilled on the server's clock, with the standard slip
// mechanism — every Slip-th refused query is answered with a truncated
// (TC=1) empty reply steering the client to TCP, which is never
// rate-limited. Because refill is driven by Server.Now and the slip
// cadence is a per-prefix counter (not a coin flip), shed and slip
// counts under a virtual clock are exact, replayable functions of the
// offered load.
type RRLConfig struct {
	// Rate is the allowed responses per second per client prefix. It
	// must be positive.
	Rate float64
	// Burst is the token-bucket capacity (default max(1, ⌈Rate⌉)).
	Burst int
	// Slip answers every Slip-th refused query with a TC=1 reply
	// (0 = the default of 2, 1 = every refusal, SlipNone = never).
	Slip int
	// IPv4PrefixLen and IPv6PrefixLen are the client-aggregation widths
	// (defaults 24 and 56, the conventional RRL granularity).
	IPv4PrefixLen int
	IPv6PrefixLen int
	// MaxBuckets bounds the tracked-prefix table (default 8192). When
	// full, idle prefixes are swept; if none are idle the limiter fails
	// open for new prefixes rather than growing without bound.
	MaxBuckets int
}

// rrlAction is the per-query limiter decision.
type rrlAction int

const (
	rrlPass rrlAction = iota
	rrlDrop
	rrlSlip
)

// rrlBucket is one client prefix's token state.
type rrlBucket struct {
	tokens  float64
	last    time.Time
	refused int64 // drives the deterministic slip cadence
}

// rrl is the limiter instance built from an RRLConfig at Start.
type rrl struct {
	rate    float64
	burst   float64
	slip    int
	v4len   int
	v6len   int
	maxBkts int
	now     func() time.Time

	mu      sync.Mutex
	buckets map[netip.Prefix]*rrlBucket
}

func newRRL(cfg RRLConfig, now func() time.Time) (*rrl, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("dnsserver: rrl: rate must be positive, got %v", cfg.Rate)
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = int(cfg.Rate)
		if float64(burst) < cfg.Rate {
			burst++
		}
		if burst < 1 {
			burst = 1
		}
	}
	slip := cfg.Slip
	switch {
	case slip == 0:
		slip = 2
	case slip < 0:
		slip = 0 // never slip
	}
	v4 := cfg.IPv4PrefixLen
	if v4 == 0 {
		v4 = 24
	}
	v6 := cfg.IPv6PrefixLen
	if v6 == 0 {
		v6 = 56
	}
	if v4 < 0 || v4 > 32 || v6 < 0 || v6 > 128 {
		return nil, fmt.Errorf("dnsserver: rrl: bad prefix lengths v4=%d v6=%d", v4, v6)
	}
	maxBkts := cfg.MaxBuckets
	if maxBkts <= 0 {
		maxBkts = 8192
	}
	return &rrl{
		rate: cfg.Rate, burst: float64(burst), slip: slip,
		v4len: v4, v6len: v6, maxBkts: maxBkts,
		now:     now,
		buckets: make(map[netip.Prefix]*rrlBucket),
	}, nil
}

// prefixOf aggregates a client address to its limiter key.
func (r *rrl) prefixOf(addr netip.Addr) netip.Prefix {
	addr = addr.Unmap()
	bits := r.v6len
	if addr.Is4() {
		bits = r.v4len
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.PrefixFrom(addr, addr.BitLen())
	}
	return p
}

// decide charges one query from addr against its prefix bucket and
// returns pass, drop, or slip.
func (r *rrl) decide(addr netip.Addr) rrlAction {
	key := r.prefixOf(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	b := r.buckets[key]
	if b == nil {
		if len(r.buckets) >= r.maxBkts {
			r.sweep(now)
		}
		if len(r.buckets) >= r.maxBkts {
			return rrlPass // table saturated: fail open, never fall over
		}
		// A prefix's first query allocates its bucket; every later one reuses it.
		b = &rrlBucket{tokens: r.burst, last: now}
		r.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * r.rate
	if b.tokens > r.burst {
		b.tokens = r.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return rrlPass
	}
	b.refused++
	if r.slip > 0 && b.refused%int64(r.slip) == 0 {
		return rrlSlip
	}
	return rrlDrop
}

// sweep drops prefixes whose buckets would be full at now — clients
// idle long enough to have fully recovered. Callers hold r.mu.
func (r *rrl) sweep(now time.Time) {
	for key, b := range r.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*r.rate >= r.burst {
			delete(r.buckets, key)
		}
	}
}

// ParseRRL parses the comma-separated RRL spec the command-line tools
// accept, e.g.
//
//	rate=20,burst=40,slip=2,v4len=24,v6len=56,buckets=8192
//
// rate is required; slip=0 disables slips entirely. An empty spec
// returns nil (RRL disabled).
func ParseRRL(spec string) (*RRLConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var cfg RRLConfig
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("dnsserver: rrl %q: want key=value", item)
		}
		switch k {
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return nil, fmt.Errorf("dnsserver: rrl rate=%q: want a positive number", v)
			}
			cfg.Rate = f
		case "burst", "slip", "v4len", "v6len", "buckets":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dnsserver: rrl %s=%q: want a non-negative integer", k, v)
			}
			switch k {
			case "burst":
				cfg.Burst = n
			case "slip":
				if n == 0 {
					cfg.Slip = SlipNone
				} else {
					cfg.Slip = n
				}
			case "v4len":
				cfg.IPv4PrefixLen = n
			case "v6len":
				cfg.IPv6PrefixLen = n
			case "buckets":
				cfg.MaxBuckets = n
			}
		default:
			return nil, fmt.Errorf("dnsserver: unknown rrl knob %q (have rate burst slip v4len v6len buckets)", k)
		}
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("dnsserver: rrl spec %q: rate is required", spec)
	}
	return &cfg, nil
}
