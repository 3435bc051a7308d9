// Package live assembles the upstream pool over real sockets: the one
// upstream leg cmd/recursor has, whichever flag named its servers, and
// the one the livewire example runs. A resolver above the pool runs no
// retry loop of its own and the pool's UDP attempts are single-shot, so
// a fault is paid for once, by failover and the EDNS ladder.
package live

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/upstreams"
)

// transport adapts the pool's exchange primitives onto real sockets:
// each synthetic pool address maps to one configured host:port. UDP
// attempts are single-shot with no client-side retries or fallback —
// the pool's ladder owns transport escalation — and decode into the
// Message the pool is given (ExchangeInto); TCP goes straight to a
// framed connection.
type transport struct {
	udp     *dnsclient.Client
	tcp     *dnsclient.Client
	targets map[netip.Addr]string
}

func (t *transport) Exchange(from, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	resp := new(dnswire.Message)
	rtt, err := t.ExchangeInto(from, to, q, resp)
	if err != nil {
		return nil, rtt, err
	}
	return resp, rtt, nil
}

// ExchangeInto is Exchange decoding the answer into resp.
func (t *transport) ExchangeInto(_, to netip.Addr, q, resp *dnswire.Message) (time.Duration, error) {
	server, ok := t.targets[to]
	if !ok {
		return 0, fmt.Errorf("live: no socket for pool address %v", to)
	}
	start := time.Now()
	err := t.udp.ExchangeUDPInto(server, q, resp)
	return time.Since(start), err
}

func (t *transport) ExchangeTCP(_, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	server, ok := t.targets[to]
	if !ok {
		return nil, 0, fmt.Errorf("live: no socket for pool address %v", to)
	}
	start := time.Now()
	resp, err := t.tcp.Exchange(server, q)
	return resp, time.Since(start), err
}

// ParseSpec parses "host:port[/priority[/weight]],..." into pool
// upstreams on synthetic 192.0.2.x addresses plus the socket map the
// transport routes by.
func ParseSpec(spec string) ([]upstreams.Upstream, map[netip.Addr]string, error) {
	parts := strings.Split(spec, ",")
	if len(parts) > 254 {
		return nil, nil, fmt.Errorf("pool spec lists %d upstreams; max 254", len(parts))
	}
	targets := make(map[netip.Addr]string, len(parts))
	ups := make([]upstreams.Upstream, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, "/")
		if part == "" || len(fields) > 3 {
			return nil, nil, fmt.Errorf("bad pool upstream %q: want host:port[/priority[/weight]]", part)
		}
		if err := CheckHostPort(fields[0]); err != nil {
			return nil, nil, fmt.Errorf("bad pool upstream %q: %v", part, err)
		}
		u := upstreams.Upstream{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})}
		if len(fields) > 1 {
			p, err := strconv.Atoi(fields[1])
			if err != nil || p < 0 {
				return nil, nil, fmt.Errorf("bad priority in pool upstream %q", part)
			}
			u.Priority = p
		}
		if len(fields) > 2 {
			wt, err := strconv.Atoi(fields[2])
			if err != nil || wt < 1 {
				return nil, nil, fmt.Errorf("bad weight in pool upstream %q", part)
			}
			u.Weight = wt
		}
		targets[u.Addr] = fields[0]
		ups = append(ups, u)
	}
	return ups, targets, nil
}

// CheckHostPort is the start-up check on every upstream address, so a
// typo stops the process instead of turning every miss into SERVFAIL:
// it must split as host:port, and an upstream names both ("127.0.0.1:"
// splits, then dials port 0 for the life of the process).
func CheckHostPort(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	if host == "" || port == "" {
		return fmt.Errorf("address %s: empty host or port", addr)
	}
	return nil
}

// NewPool builds the pool over spec's members (the ParseSpec grammar)
// with cmd/recursor's -hedge, -breaker and -edns-ladder switches, and
// returns it with the client whose ring every UDP query upstream leaves
// through; the caller reports and closes that client's sockets.
func NewPool(spec string, hedge, breaker, ladder bool) (*upstreams.Pool, *dnsclient.Client, error) {
	ups, targets, err := ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	udp := &dnsclient.Client{Retries: dnsclient.NoRetries}
	pool, err := upstreams.New(upstreams.Config{
		Upstreams: ups,
		Transport: &transport{
			udp:     udp,
			tcp:     &dnsclient.Client{ForceTCP: true},
			targets: targets,
		},
		Now:            time.Now,
		Hedge:          hedge,
		DisableBreaker: !breaker,
		DisableLadder:  !ladder,
		Concurrent:     true,
		After:          time.After,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("pool: %v", err)
	}
	return pool, udp, nil
}
