package netem

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"ecsdns/internal/dnswire"
)

// Window is a half-open interval of virtual time [Start, End) during
// which a blackout is in effect.
type Window struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// FaultPlan describes the failures injected into exchanges: the loss,
// delay, truncation, and misbehavior a query can meet on the real
// Internet. Plans compose — a global plan and a per-node plan both
// apply to an exchange, each drawing from its own seeded RNG, so every
// failure trace is a deterministic function of (plans, seeds, query
// order).
type FaultPlan struct {
	// Loss is the probability an exchange is lost in transit. The
	// sender burns LossTimeout waiting and gets ErrLost.
	Loss float64
	// Latency is a fixed round-trip delay added on top of the
	// geographic RTT.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// Truncate is the probability a response comes back truncated: TC
	// set, record sections stripped — the UDP size-limit failure mode.
	Truncate float64
	// ServFail is the probability a response is replaced by an empty
	// SERVFAIL, modeling flaky upstream infrastructure.
	ServFail float64
	// Corrupt is the probability a response arrives with a mangled
	// transaction ID (bit-flipped), which validating consumers must
	// reject as a mismatch.
	Corrupt float64
	// Blackouts are virtual-time windows during which the destination
	// is dark: every exchange is lost, modeling node outages.
	Blackouts []Window
	// LossTimeout is the time a lost exchange costs the sender
	// (default 1s).
	LossTimeout time.Duration
	// Payload inflates every response from the node to this many wire
	// bytes, driving the UDP size failure modes the DoTCP-fallback
	// studies measure: a UDP response exceeding the querier's advertised
	// EDNS payload (512 without EDNS) comes back as a bare TC=1
	// truncation, and one exceeding FragThreshold is subject to
	// FragLoss. Zero disables size faults. TCP exchanges
	// (Network.ExchangeTCP) are immune.
	Payload int
	// FragLoss is the probability a UDP response larger than
	// FragThreshold is dropped silently — the IP-fragment loss the
	// sender can only observe as a timeout.
	FragLoss float64
	// FragThreshold is the size beyond which a UDP response fragments
	// (default 1400, roughly Ethernet MTU minus headers).
	FragThreshold int
}

// IsZero reports whether the plan injects nothing.
func (p FaultPlan) IsZero() bool {
	return p.Loss == 0 && p.Latency == 0 && p.Jitter == 0 &&
		p.Truncate == 0 && p.ServFail == 0 && p.Corrupt == 0 &&
		len(p.Blackouts) == 0 && p.Payload == 0
}

func (p FaultPlan) fragThreshold() int {
	if p.FragThreshold > 0 {
		return p.FragThreshold
	}
	return 1400
}

func (p FaultPlan) lossTimeout() time.Duration {
	if p.LossTimeout > 0 {
		return p.LossTimeout
	}
	return time.Second
}

// FaultStats counts the faults the network has injected so far.
type FaultStats struct {
	// Lost counts exchanges dropped in transit (including blackouts).
	Lost int64
	// Blackouts counts the subset of Lost due to blackout windows.
	Blackouts int64
	// Truncated, ServFails and Corrupted count injected response
	// faults.
	Truncated int64
	ServFails int64
	Corrupted int64
	// SizeTruncated counts UDP responses truncated because the inflated
	// payload exceeded the querier's advertised EDNS buffer, and
	// FragDrops the subset of Lost due to fragment loss (a UDP response
	// over the fragmentation threshold silently dropped).
	SizeTruncated int64
	FragDrops     int64
	// Delayed counts exchanges that received extra latency, and
	// ExtraLatency is the total delay added.
	Delayed      int64
	ExtraLatency time.Duration
}

// faultState pairs a plan with its private deterministic RNG.
type faultState struct {
	plan FaultPlan
	rng  *rand.Rand
}

// SetFaults installs plan as the global fault plan, applied to every
// exchange, driven by a deterministic RNG seeded with seed. A zero plan
// clears the global plan.
func (n *Network) SetFaults(plan FaultPlan, seed int64) {
	n.fmu.Lock()
	if plan.IsZero() {
		n.globalFaults = nil
	} else {
		n.globalFaults = &faultState{plan: plan, rng: rand.New(rand.NewSource(seed))}
	}
	n.refreshFaultsActive()
	n.fmu.Unlock()
}

// SetNodeFaults installs plan for exchanges destined to addr, composing
// with any global plan. A zero plan clears the node's plan.
func (n *Network) SetNodeFaults(addr netip.Addr, plan FaultPlan, seed int64) {
	n.fmu.Lock()
	if plan.IsZero() {
		delete(n.nodeFaults, addr)
	} else {
		if n.nodeFaults == nil {
			n.nodeFaults = make(map[netip.Addr]*faultState)
		}
		n.nodeFaults[addr] = &faultState{plan: plan, rng: rand.New(rand.NewSource(seed))}
	}
	n.refreshFaultsActive()
	n.fmu.Unlock()
}

// FaultStats returns a snapshot of the injected-fault counters.
func (n *Network) FaultStats() FaultStats {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	return n.fstats
}

// refreshFaultsActive recomputes the fast-path flag; callers hold fmu.
func (n *Network) refreshFaultsActive() {
	n.faultsActive.Store(n.globalFaults != nil || len(n.nodeFaults) > 0)
}

// forwardFaults rolls the pre-delivery faults for an exchange to dest:
// blackout, loss, and added latency. It reports whether the exchange is
// lost (and at what time cost) and any extra latency to add to the RTT.
func (n *Network) forwardFaults(dest netip.Addr) (lost bool, cost, extra time.Duration) {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	now := n.clock.Now()
	for _, st := range [2]*faultState{n.globalFaults, n.nodeFaults[dest]} {
		if st == nil {
			continue
		}
		p := st.plan
		for _, w := range p.Blackouts {
			if w.Contains(now) {
				n.fstats.Blackouts++
				n.fstats.Lost++
				return true, p.lossTimeout(), 0
			}
		}
		if p.Loss > 0 && st.rng.Float64() < p.Loss {
			n.fstats.Lost++
			return true, p.lossTimeout(), 0
		}
		if p.Latency > 0 || p.Jitter > 0 {
			add := p.Latency
			if p.Jitter > 0 {
				add += time.Duration(st.rng.Float64() * float64(p.Jitter))
			}
			if add > 0 {
				extra += add
				n.fstats.Delayed++
				n.fstats.ExtraLatency += add
			}
		}
	}
	return false, 0, extra
}

// truncateResponse builds the truncated form of resp: a bare TC=1
// header with every record section stripped, the AA and AD bits
// cleared, and the OPT record gone — what a real resolver sees when a
// size-limited server gives up on the UDP answer. The original message
// is never mutated.
func truncateResponse(resp *dnswire.Message) *dnswire.Message {
	out := *resp
	out.Truncated = true
	out.Authoritative = false
	out.AuthenticData = false
	out.EDNS = nil
	out.Answers, out.Authorities, out.Additionals = nil, nil, nil
	return &out
}

// advertisedPayload is the UDP response budget the query granted: the
// EDNS payload size when present (floored at the RFC 6891 minimum of
// 512), or the classic 512-byte limit without EDNS.
func advertisedPayload(q *dnswire.Message) int {
	if q == nil || q.EDNS == nil {
		return 512
	}
	if q.EDNS.UDPSize < 512 {
		return 512
	}
	return int(q.EDNS.UDPSize)
}

// responseFaults rolls the post-delivery faults for a response from
// dest, returning the (possibly replaced) response and whether the
// response was lost to fragmentation (fragDropped). The original
// message is never mutated. Size faults (payload inflation against the
// query's advertised EDNS buffer, then fragment loss) are evaluated
// first, then at most one injected response fault fires per exchange,
// in truncate → servfail → corrupt order. TCP exchanges see only the
// servfail fault: the stream transport is immune to size limits,
// fragmentation, truncation, and off-path ID corruption.
func (n *Network) responseFaults(dest netip.Addr, q, resp *dnswire.Message, tcp bool) (*dnswire.Message, bool) {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	for _, st := range [2]*faultState{n.globalFaults, n.nodeFaults[dest]} {
		if st == nil {
			continue
		}
		p := st.plan
		if p.Payload > 0 && !tcp {
			if p.Payload > advertisedPayload(q) {
				n.fstats.SizeTruncated++
				return truncateResponse(resp), false
			}
			if p.FragLoss > 0 && p.Payload > p.fragThreshold() &&
				st.rng.Float64() < p.FragLoss {
				n.fstats.FragDrops++
				n.fstats.Lost++
				return nil, true
			}
		}
		if p.Truncate > 0 && !tcp && st.rng.Float64() < p.Truncate {
			n.fstats.Truncated++
			return truncateResponse(resp), false
		}
		if p.ServFail > 0 && st.rng.Float64() < p.ServFail {
			n.fstats.ServFails++
			out := *resp
			out.RCode = dnswire.RCodeServFail
			out.Answers, out.Authorities = nil, nil
			return &out, false
		}
		if p.Corrupt > 0 && !tcp && st.rng.Float64() < p.Corrupt {
			n.fstats.Corrupted++
			out := *resp
			out.ID = ^resp.ID
			return &out, false
		}
	}
	return resp, false
}

// lossTimeoutFor returns the loss-timeout budget governing dest: the
// node plan's when set, else the global plan's, else the default.
func (n *Network) lossTimeoutFor(dest netip.Addr) time.Duration {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	if st := n.nodeFaults[dest]; st != nil && st.plan.LossTimeout > 0 {
		return st.plan.LossTimeout
	}
	if st := n.globalFaults; st != nil {
		return st.plan.lossTimeout()
	}
	return time.Second
}

// ParseFaultPlan parses the comma-separated fault spec the command-line
// tools accept, e.g.
//
//	loss=0.1,latency=30ms,jitter=10ms,truncate=0.2,servfail=0.1,corrupt=0.05,blackout=2m+30s
//	payload=3000,fragloss=0.9,fragthreshold=1400
//
// Probabilities are in [0,1]; latency/jitter are Go durations; each
// blackout is start+duration, offsets from the simulation start
// (SimStart); payload and fragthreshold are wire sizes in bytes. An
// empty spec yields a zero plan.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return FaultPlan{}, fmt.Errorf("netem: fault %q: want key=value", item)
		}
		switch k {
		case "loss", "truncate", "servfail", "corrupt", "fragloss":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return FaultPlan{}, fmt.Errorf("netem: fault %s=%q: want a probability in [0,1]", k, v)
			}
			switch k {
			case "loss":
				p.Loss = f
			case "truncate":
				p.Truncate = f
			case "servfail":
				p.ServFail = f
			case "corrupt":
				p.Corrupt = f
			case "fragloss":
				p.FragLoss = f
			}
		case "payload", "fragthreshold":
			i, err := strconv.Atoi(v)
			if err != nil || i <= 0 || i > 65535 {
				return FaultPlan{}, fmt.Errorf("netem: fault %s=%q: want a wire size in [1,65535]", k, v)
			}
			if k == "payload" {
				p.Payload = i
			} else {
				p.FragThreshold = i
			}
		case "latency", "jitter":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return FaultPlan{}, fmt.Errorf("netem: fault %s=%q: want a non-negative duration", k, v)
			}
			if k == "latency" {
				p.Latency = d
			} else {
				p.Jitter = d
			}
		case "blackout":
			sv, dv, ok := strings.Cut(v, "+")
			if !ok {
				return FaultPlan{}, fmt.Errorf("netem: fault blackout=%q: want start+duration (offsets from sim start)", v)
			}
			start, err1 := time.ParseDuration(sv)
			dur, err2 := time.ParseDuration(dv)
			if err1 != nil || err2 != nil || start < 0 || dur <= 0 {
				return FaultPlan{}, fmt.Errorf("netem: fault blackout=%q: bad start or duration", v)
			}
			p.Blackouts = append(p.Blackouts, Window{
				Start: SimStart.Add(start),
				End:   SimStart.Add(start + dur),
			})
		default:
			return FaultPlan{}, fmt.Errorf("netem: unknown fault knob %q (have loss latency jitter truncate servfail corrupt blackout payload fragloss fragthreshold)", k)
		}
	}
	return p, nil
}
