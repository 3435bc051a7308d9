package dnsclient_test

import (
	"context"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/scanner"
)

// The attack on clock-seeded query IDs (RFC 5452), run against both ID
// sources of a live scan: a Pipeline and a scanner.Scan left at
// Seed 0. An off-path attacker who knows to within a few microseconds
// when the generator was seeded tries every nanosecond of that window as
// a math/rand seed, and a hit predicts every later ID.

// clockWindow bounds the bracket of clock reads the attack searches: a
// window of 100 µs is 100 000 candidate seeds, under a second to try.
const clockWindow = 100 * time.Microsecond

// clockSeed returns the nanosecond in [lo, hi] that, taken as a
// math/rand seed, draws ids as its first values of Intn(1<<16).
func clockSeed(lo, hi time.Time, ids []uint16) (int64, bool) {
	r := rand.New(rand.NewSource(0))
	for seed := lo.UnixNano(); seed <= hi.UnixNano(); seed++ {
		r.Seed(seed)
		n := 0
		for n < len(ids) && uint16(r.Intn(1<<16)) == ids[n] {
			n++
		}
		if n == len(ids) {
			return seed, true
		}
	}
	return 0, false
}

// echo answers every query with its own header and question, so the ID
// the client sent comes back on the wire.
type echo struct{}

func (echo) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	return dnswire.NewResponse(q)
}

func TestPipelineIDsNotDerivableFromClock(t *testing.T) {
	srv := dnsserver.New(echo{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var p *dnsclient.Pipeline
	var before, after time.Time
	for try := 0; p == nil || after.Sub(before) > clockWindow; try++ {
		if try == 50 {
			t.Skipf("could not bracket NewPipeline within %v", clockWindow)
		}
		before = time.Now()
		pp, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: 2 * time.Second})
		after = time.Now()
		if err != nil {
			t.Fatal(err)
		}
		defer pp.Close()
		p = pp
	}

	ids := make([]uint16, 4)
	resp := &dnswire.Message{}
	for i := range ids {
		q := dnswire.NewQuery(0, "idseed.test.", dnswire.TypeA)
		if err := p.ExchangeInto(context.Background(), addr.String(), q, resp); err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.ID
	}
	if seed, ok := clockSeed(before, after, ids); ok {
		t.Fatalf("query IDs %v are math/rand's stream for seed %d, read off the clock while NewPipeline ran", ids, seed)
	}
}

func TestScanIDsNotDerivableFromClock(t *testing.T) {
	targets := make([]netip.Addr, 4)
	for i := range targets {
		targets[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	for try := 0; try < 50; try++ {
		var ids []uint16
		var after time.Time
		s := &scanner.Scan{
			// The first Exchange comes right after the first ID is drawn,
			// which is when a Scan at Seed 0 seeds its generator.
			Exchange: func(_ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				if ids == nil {
					after = time.Now()
				}
				ids = append(ids, q.ID)
				return dnswire.NewResponse(q), nil
			},
			Zone: "scan.example.org.",
		}
		before := time.Now()
		s.Run(targets, &scanner.LogBuffer{})
		if after.Sub(before) > clockWindow {
			continue
		}
		if seed, ok := clockSeed(before, after, ids); ok {
			t.Fatalf("probe IDs %v are math/rand's stream for seed %d, read off the clock when the scan started", ids, seed)
		}
		return
	}
	t.Skipf("could not bracket the scan's first probe within %v", clockWindow)
}
