package upstreams

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

var (
	upA = netip.MustParseAddr("192.0.2.1")
	upB = netip.MustParseAddr("192.0.2.2")
	upC = netip.MustParseAddr("192.0.2.3")
	cli = netip.MustParseAddr("198.51.100.1")
)

// scriptFn models one upstream's behavior for one exchange.
type scriptFn func(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error)

// fakeTransport scripts per-upstream behavior and logs every exchange.
type fakeTransport struct {
	mu       sync.Mutex
	script   map[netip.Addr]scriptFn
	log      []string
	lastSize int // advertised EDNS payload of the latest UDP exchange
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{script: make(map[netip.Addr]scriptFn)}
}

func (t *fakeTransport) set(addr netip.Addr, fn scriptFn) {
	t.mu.Lock()
	t.script[addr] = fn
	t.mu.Unlock()
}

func (t *fakeTransport) exchange(to netip.Addr, q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	t.mu.Lock()
	fn := t.script[to]
	proto := "udp"
	size := 0
	if q.EDNS != nil {
		size = int(q.EDNS.UDPSize)
	}
	if tcp {
		proto = "tcp"
	} else {
		t.lastSize = size
	}
	t.log = append(t.log, proto+" "+to.String())
	t.mu.Unlock()
	if fn == nil {
		return nil, 0, errors.New("no script for " + to.String())
	}
	return fn(q, tcp)
}

func (t *fakeTransport) Exchange(_, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return t.exchange(to, q, false)
}

func (t *fakeTransport) ExchangeTCP(_, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return t.exchange(to, q, true)
}

func (t *fakeTransport) calls() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.log))
	copy(out, t.log)
	return out
}

// fakeClock is a manually advanced test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func answer(q *dnswire.Message) *dnswire.Message {
	r := dnswire.NewResponse(q)
	r.Answers = []dnswire.RR{{
		Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 30,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("203.0.113.7")},
	}}
	return r
}

func answers(cost time.Duration) scriptFn {
	return func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		return answer(q), cost, nil
	}
}

func fails(cost time.Duration) scriptFn {
	return func(_ *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		return nil, cost, errors.New("lost")
	}
}

func testPool(t *testing.T, cfg Config) (*Pool, *fakeTransport, *fakeClock) {
	t.Helper()
	tr := newFakeTransport()
	clk := newFakeClock()
	cfg.Transport = tr
	cfg.Now = clk.Now
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, tr, clk
}

func query(id uint16) *dnswire.Message {
	return dnswire.NewQuery(id, "x.example.", dnswire.TypeA)
}

func checkCounters(t *testing.T, p *Pool) Counters {
	t.Helper()
	c := p.Counters()
	if err := c.Check(); err != nil {
		t.Fatalf("%v: %+v", err, c)
	}
	return c
}

func TestPoolSingleUpstream(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	tr.set(upA, answers(20*time.Millisecond))
	resp, cost, err := p.Exchange(cli, query(1))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if cost != 20*time.Millisecond {
		t.Fatalf("cost = %v", cost)
	}
	c := checkCounters(t, p)
	if c.Issued != 1 || c.Won != 1 || c.Granted != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPoolFailover(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}, {Addr: upB}}})
	tr.set(upA, fails(time.Second))
	tr.set(upB, answers(30*time.Millisecond))
	// Prime A as the preferred upstream (it starts equal; index order
	// breaks the tie toward A).
	resp, _, err := p.Exchange(cli, query(1))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("failover lost the answer: resp=%v err=%v", resp, err)
	}
	c := checkCounters(t, p)
	if c.Issued != 2 || c.Won != 1 || c.Failed != 1 || c.Failovers != 1 {
		t.Fatalf("counters = %+v", c)
	}
	// The failure poisoned A's health score; the next query goes to B
	// directly.
	if _, _, err := p.Exchange(cli, query(2)); err != nil {
		t.Fatal(err)
	}
	calls := tr.calls()
	if got := calls[len(calls)-1]; got != "udp "+upB.String() {
		t.Fatalf("second query went to %s; health scoring should prefer B", got)
	}
}

func TestPoolPriorityTiers(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{
		{Addr: upA, Priority: 1},
		{Addr: upB, Priority: 0},
	}})
	tr.set(upA, answers(time.Millisecond))
	tr.set(upB, answers(50*time.Millisecond))
	if _, _, err := p.Exchange(cli, query(1)); err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls(); calls[0] != "udp "+upB.String() {
		t.Fatalf("tier-1 upstream picked over tier-0: %v", calls)
	}
}

func TestPoolAllFailed(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}, {Addr: upB}}})
	tr.set(upA, fails(time.Second))
	tr.set(upB, fails(time.Second))
	_, _, err := p.Exchange(cli, query(1))
	if err == nil {
		t.Fatal("want error when every upstream fails")
	}
	c := checkCounters(t, p)
	if c.Issued != 2 || c.Failed != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPoolHedgeRace(t *testing.T) {
	p, tr, _ := testPool(t, Config{
		Upstreams: []Upstream{{Addr: upA}, {Addr: upB}},
		Hedge:     true,
	})
	tr.set(upA, answers(10*time.Millisecond))
	tr.set(upB, answers(12*time.Millisecond))
	// Fill the sampler with fast answers so the hedge delay is their
	// 95th percentile, not the 2s cap; the slow primary's own sample
	// then sits above that percentile.
	for i := 0; i < samplerSize; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	base := p.Counters()

	// Primary slows down past the hedge delay; the hedge (B) wins the
	// modeled race: delay + 12ms < 300ms.
	tr.set(upA, answers(300*time.Millisecond))
	resp, cost, err := p.Exchange(cli, query(99))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if cost >= 300*time.Millisecond {
		t.Fatalf("hedged cost = %v; want the race winner's completion, not the slow primary's", cost)
	}
	c := checkCounters(t, p)
	if c.Hedges != base.Hedges+1 {
		t.Fatalf("hedges = %d, want %d", c.Hedges, base.Hedges+1)
	}
	// Two attempts: the hedge won, the slow-but-valid primary lost.
	if c.Issued != base.Issued+2 || c.Won != base.Won+1 || c.Lost != base.Lost+1 {
		t.Fatalf("counters = %+v (base %+v)", c, base)
	}
}

func TestPoolHedgePrimaryWins(t *testing.T) {
	p, tr, _ := testPool(t, Config{
		Upstreams: []Upstream{{Addr: upA}, {Addr: upB}},
		Hedge:     true,
	})
	tr.set(upA, answers(10*time.Millisecond))
	tr.set(upB, answers(12*time.Millisecond))
	for i := 0; i < samplerSize; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	base := p.Counters()

	// The primary exceeds the delay but still beats hedge-start + a
	// slow hedge; the hedge's valid answer is settled Lost.
	tr.set(upA, answers(40*time.Millisecond))
	tr.set(upB, answers(500*time.Millisecond))
	_, cost, err := p.Exchange(cli, query(99))
	if err != nil {
		t.Fatal(err)
	}
	if cost != 40*time.Millisecond {
		t.Fatalf("cost = %v, want the primary's 40ms", cost)
	}
	c := checkCounters(t, p)
	if c.Won != base.Won+1 || c.Lost != base.Lost+1 {
		t.Fatalf("counters = %+v (base %+v)", c, base)
	}
}

func TestPoolHedgeCancelled(t *testing.T) {
	p, tr, _ := testPool(t, Config{
		Upstreams: []Upstream{{Addr: upA}, {Addr: upB}},
		Hedge:     true,
	})
	tr.set(upA, answers(10*time.Millisecond))
	tr.set(upB, answers(12*time.Millisecond))
	for i := 0; i < samplerSize; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	base := p.Counters()

	// Primary answers at 40ms; the hedge times out at 1s — long after
	// the race was decided, so it is Cancelled, not Failed.
	tr.set(upA, answers(40*time.Millisecond))
	tr.set(upB, fails(time.Second))
	if _, _, err := p.Exchange(cli, query(99)); err != nil {
		t.Fatal(err)
	}
	c := checkCounters(t, p)
	if c.Won != base.Won+1 || c.Cancelled != base.Cancelled+1 {
		t.Fatalf("counters = %+v (base %+v)", c, base)
	}
}

func TestPoolBreakerLifecycle(t *testing.T) {
	p, tr, clk := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	tr.set(upA, fails(time.Second))

	// breakerFailures consecutive failures trip the breaker open; one
	// fewer leaves it closed.
	for i := 0; i < breakerFailures; i++ {
		if st := p.BreakerStates()[upA]; st != Closed {
			t.Fatalf("state after %d failures = %v", i, st)
		}
		if _, _, err := p.Exchange(cli, query(uint16(i))); err == nil {
			t.Fatal("scripted failure answered")
		}
	}
	if st := p.BreakerStates()[upA]; st != Open {
		t.Fatalf("state after trip = %v", st)
	}

	// While open, queries fast-fail without touching the transport,
	// until breakerOpenFor has passed on the clock.
	callsBefore := len(tr.calls())
	if _, _, err := p.Exchange(cli, query(10)); !errors.Is(err, ErrAllUnhealthy) {
		t.Fatalf("open breaker: err = %v, want ErrAllUnhealthy", err)
	}
	clk.Advance(breakerOpenFor - time.Second)
	if _, _, err := p.Exchange(cli, query(11)); !errors.Is(err, ErrAllUnhealthy) {
		t.Fatalf("breaker open 29s: err = %v, want ErrAllUnhealthy", err)
	}
	if len(tr.calls()) != callsBefore {
		t.Fatal("open breaker still sent a query upstream")
	}

	// After breakerOpenFor, half-open probes are admitted; breakerProbes
	// successes close the breaker, one fewer leaves it half-open.
	clk.Advance(time.Second)
	tr.set(upA, answers(10*time.Millisecond))
	for i := 0; i < breakerProbes; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(20+i))); err != nil {
			t.Fatalf("probe query %d: %v", i, err)
		}
		want := HalfOpen
		if i == breakerProbes-1 {
			want = Closed
		}
		if st := p.BreakerStates()[upA]; st != want {
			t.Fatalf("state after %d probes = %v, want %v", i+1, st, want)
		}
	}

	want := []struct{ from, to State }{
		{Closed, Open}, {Open, HalfOpen}, {HalfOpen, Closed},
	}
	trace := p.BreakerTrace()
	if len(trace) != len(want) {
		t.Fatalf("trace = %+v", trace)
	}
	for i, w := range want {
		if trace[i].From != w.from || trace[i].To != w.to || trace[i].Upstream != upA {
			t.Fatalf("trace[%d] = %+v, want %v→%v", i, trace[i], w.from, w.to)
		}
	}
	if got := trace[1].At.Sub(trace[0].At); got != breakerOpenFor {
		t.Fatalf("breaker half-opened %v after tripping, want %v", got, breakerOpenFor)
	}
	c := checkCounters(t, p)
	if c.BreakerTrips != 1 || c.FastFails != 2 || c.Refused != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPoolBreakerProbeFailureReopens(t *testing.T) {
	p, tr, clk := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	tr.set(upA, fails(time.Second))
	for i := 0; i < breakerFailures; i++ {
		p.Exchange(cli, query(uint16(i))) // trips open
	}
	clk.Advance(breakerOpenFor)
	p.Exchange(cli, query(10)) // half-open probe fails → reopen
	if st := p.BreakerStates()[upA]; st != Open {
		t.Fatalf("state after failed probe = %v", st)
	}
	trace := p.BreakerTrace()
	if len(trace) != 3 || trace[2].To != Open {
		t.Fatalf("trace = %+v", trace)
	}
	// Flapping on, through more open cycles than the trace holds: it
	// keeps the last traceCap transitions.
	for i := 0; i < traceCap; i++ {
		clk.Advance(breakerOpenFor)
		p.Exchange(cli, query(uint16(20+i)))
	}
	if trace = p.BreakerTrace(); len(trace) != traceCap || trace[0].From != Open || trace[traceCap-1].To != Open {
		t.Fatalf("%d open cycles left a trace of %d, want the last %d: %+v", traceCap+2, len(trace), traceCap, trace)
	}
	checkCounters(t, p)
}

// truncateUnder returns a script that answers truncated whenever the
// advertised UDP payload is below need, and fully otherwise; TCP always
// answers fully.
func truncateUnder(need int, cost time.Duration) scriptFn {
	return func(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
		if tcp {
			return answer(q), cost, nil
		}
		adv := 512
		if q.EDNS != nil {
			adv = int(q.EDNS.UDPSize)
		}
		if adv < need {
			r := dnswire.NewResponse(q)
			r.Truncated = true
			return r, cost, nil
		}
		return answer(q), cost, nil
	}
}

func TestPoolLadderToTCP(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	// A response too big for any UDP advertisement: both rungs come
	// back truncated, the chain lands on TCP.
	tr.set(upA, truncateUnder(1<<16, 10*time.Millisecond))
	resp, cost, err := p.Exchange(cli, query(1))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if cost != 30*time.Millisecond {
		t.Fatalf("chain cost = %v, want 3 exchanges' worth", cost)
	}
	if calls := tr.calls(); len(calls) != 3 || calls[2] != "tcp "+upA.String() {
		t.Fatalf("calls = %v", calls)
	}
	c := checkCounters(t, p)
	if c.LadderSteps != 2 || c.TCPFallbacks != 1 || c.Issued != 1 || c.Won != 1 {
		t.Fatalf("counters = %+v", c)
	}

	// The learned ceiling sticks: the next query goes straight to TCP.
	if _, _, err := p.Exchange(cli, query(2)); err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls(); len(calls) != 4 || calls[3] != "tcp "+upA.String() {
		t.Fatalf("learned rung ignored: %v", calls)
	}
}

func TestPoolLadderLearnedCeiling(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	// Fits in 1232 but not 4096's un-fragmented path: truncate only the
	// 4096 advertisement (modeling a server that refuses big UDP).
	tr.set(upA, func(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
		if !tcp && q.EDNS != nil && q.EDNS.UDPSize > 1232 {
			r := dnswire.NewResponse(q)
			r.Truncated = true
			return r, 10 * time.Millisecond, nil
		}
		return answer(q), 10 * time.Millisecond, nil
	})
	if _, _, err := p.Exchange(cli, query(1)); err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls(); len(calls) != 2 {
		t.Fatalf("first chain = %v", calls)
	}
	// Second query starts at the learned 1232 rung: one exchange.
	if _, _, err := p.Exchange(cli, query(2)); err != nil {
		t.Fatal(err)
	}
	if calls := tr.calls(); len(calls) != 3 {
		t.Fatalf("learned ceiling not used: %v", calls)
	}
}

func TestPoolLadderDecay(t *testing.T) {
	p, tr, clk := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	tr.set(upA, truncateUnder(2000, 10*time.Millisecond))
	if _, _, err := p.Exchange(cli, query(1)); err != nil {
		t.Fatal(err)
	}
	// Learned rung is 1 (1232 truncates at need=2000 → TCP? No: 4096
	// fits 2000). Script: truncate under 2000 → 4096 passes. Re-script
	// so the first chain steps to rung 1.
	tr.set(upA, func(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
		if !tcp && q.EDNS != nil && q.EDNS.UDPSize > 1232 {
			r := dnswire.NewResponse(q)
			r.Truncated = true
			return r, 10 * time.Millisecond, nil
		}
		return answer(q), 10 * time.Millisecond, nil
	})
	if _, _, err := p.Exchange(cli, query(2)); err != nil {
		t.Fatal(err)
	}
	if sz := lastAdvertised(t, tr); sz != 1232 {
		t.Fatalf("learned advertisement = %d", sz)
	}
	// Short of ladderDecay the learned ceiling holds; after it the
	// ceiling relaxes back to 4096.
	tr.set(upA, answers(10*time.Millisecond))
	clk.Advance(ladderDecay - time.Second)
	if _, _, err := p.Exchange(cli, query(3)); err != nil {
		t.Fatal(err)
	}
	if sz := lastAdvertised(t, tr); sz != 1232 {
		t.Fatalf("advertisement before decay = %d", sz)
	}
	clk.Advance(time.Second)
	if _, _, err := p.Exchange(cli, query(4)); err != nil {
		t.Fatal(err)
	}
	if sz := lastAdvertised(t, tr); sz != 4096 {
		t.Fatalf("decayed advertisement = %d", sz)
	}
	checkCounters(t, p)
}

// lastAdvertised digs the advertised payload of the most recent UDP
// exchange out of the transport by re-scripting capture; instead we
// track it via a capture script. Helper kept simple: the fakeTransport
// records only proto+addr, so tests that need the advertised size wrap
// the script.
func lastAdvertised(t *testing.T, tr *fakeTransport) int {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.lastSize
}

func TestPoolLossStepsOnce(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}}})
	// Loses big-buffer queries (fragmentation), answers at 1232.
	tr.set(upA, func(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
		if !tcp && q.EDNS != nil && q.EDNS.UDPSize > 1232 {
			return nil, time.Second, errors.New("lost")
		}
		return answer(q), 10 * time.Millisecond, nil
	})
	resp, cost, err := p.Exchange(cli, query(1))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if cost != time.Second+10*time.Millisecond {
		t.Fatalf("cost = %v", cost)
	}
	c := checkCounters(t, p)
	if c.Issued != 1 || c.Won != 1 || c.LadderSteps != 1 {
		t.Fatalf("counters = %+v", c)
	}

	// A second loss in the same chain is terminal: the chain fails
	// rather than burning unbounded timeouts.
	p2, tr2, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upB}}})
	tr2.set(upB, fails(time.Second))
	_, cost, err = p2.Exchange(cli, query(2))
	if err == nil {
		t.Fatal("all-loss chain answered")
	}
	if cost != 2*time.Second {
		t.Fatalf("all-loss chain cost = %v, want exactly 2 loss timeouts", cost)
	}
}

func TestPoolValidation(t *testing.T) {
	tr := newFakeTransport()
	clk := newFakeClock()
	for _, bad := range []Config{
		{},
		{Upstreams: []Upstream{{Addr: upA}}},
		{Upstreams: []Upstream{{Addr: upA}}, Transport: tr},
		{Upstreams: []Upstream{{Addr: upA}, {Addr: upA}}, Transport: tr, Now: clk.Now},
		{Upstreams: []Upstream{{}}, Transport: tr, Now: clk.Now},
		{Upstreams: []Upstream{{Addr: upA}}, Transport: tr, Now: clk.Now, Concurrent: true},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v) accepted", bad)
		}
	}
}

func TestPoolMismatchAndServFail(t *testing.T) {
	p, tr, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}, {Addr: upB}}})
	tr.set(upA, func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		r := answer(q)
		r.ID = ^q.ID // corrupted transaction ID
		return r, 10 * time.Millisecond, nil
	})
	tr.set(upB, answers(10*time.Millisecond))
	resp, _, err := p.Exchange(cli, query(1))
	if err != nil || resp.ID != 1 {
		t.Fatalf("mismatch failover: resp=%v err=%v", resp, err)
	}

	// SERVFAIL is a soft failure: the pool fails over rather than
	// delivering it.
	tr.set(upA, func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		r := dnswire.NewResponse(q)
		r.RCode = dnswire.RCodeServFail
		return r, 10 * time.Millisecond, nil
	})
	p2, tr2, _ := testPool(t, Config{Upstreams: []Upstream{{Addr: upA}, {Addr: upB}}})
	tr2.set(upA, func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		r := dnswire.NewResponse(q)
		r.RCode = dnswire.RCodeServFail
		return r, 10 * time.Millisecond, nil
	})
	tr2.set(upB, answers(10*time.Millisecond))
	resp, _, err = p2.Exchange(cli, query(2))
	if err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("servfail failover: resp=%v err=%v", resp, err)
	}
	checkCounters(t, p)
	checkCounters(t, p2)
}

// BreakerTrace returns a copy of the breaker transition log, in the
// order the transitions happened.
func (p *Pool) BreakerTrace() []Transition {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Transition, len(p.trace))
	copy(out, p.trace)
	return out
}

// BreakerStates reports the current state of every upstream's breaker,
// keyed by upstream address.
func (p *Pool) BreakerStates() map[netip.Addr]State {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[netip.Addr]State, len(p.ups))
	for _, u := range p.ups {
		out[u.addr] = u.breaker.state
	}
	return out
}
