package dnsclient

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// chaosResponder is a real-UDP fault injector driven by a
// netem.FaultPlan: per query it rolls loss (no reply), corruption
// (transaction-ID bit flip) and truncation (a bare TC=1 answer, whose
// TCP fallback finds no listener) from a seeded RNG, and otherwise
// answers with an address derived from the query name — so the client
// side can prove responses were never cross-delivered between queries.
type chaosResponder struct {
	pc   *net.UDPConn
	plan netem.FaultPlan
	rng  *rand.Rand

	mu        sync.Mutex
	dropped   int
	corrupted int
	truncated int
	answered  int
}

func startChaosResponder(t *testing.T, plan netem.FaultPlan, seed int64) (netip.AddrPort, *chaosResponder) {
	t.Helper()
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cr := &chaosResponder{pc: pc, plan: plan, rng: rand.New(rand.NewSource(seed))}
	done := make(chan struct{})
	go cr.loop(done)
	t.Cleanup(func() {
		pc.Close()
		<-done
	})
	return pc.LocalAddr().(*net.UDPAddr).AddrPort(), cr
}

func (cr *chaosResponder) loop(done chan struct{}) {
	defer close(done)
	buf := make([]byte, 4096)
	for {
		n, src, err := cr.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		q := &dnswire.Message{}
		if err := dnswire.UnpackInto(q, buf[:n]); err != nil {
			continue
		}
		// The RNG and counters are only touched on this goroutine; the
		// lock orders them against the test's final reads.
		cr.mu.Lock()
		drop := cr.plan.Loss > 0 && cr.rng.Float64() < cr.plan.Loss
		corrupt := !drop && cr.plan.Corrupt > 0 && cr.rng.Float64() < cr.plan.Corrupt
		truncate := !drop && !corrupt && cr.plan.Truncate > 0 && cr.rng.Float64() < cr.plan.Truncate
		switch {
		case drop:
			cr.dropped++
		case corrupt:
			cr.corrupted++
		case truncate:
			cr.truncated++
		default:
			cr.answered++
		}
		cr.mu.Unlock()
		if drop {
			continue
		}
		resp := dnswire.NewResponse(q)
		if truncate {
			resp.Truncated, resp.EDNS = true, nil
		} else {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: q.Question().Name, TTL: 60,
				Data: &dnswire.ARData{Addr: hashAddr(q.Question().Name)},
			})
		}
		out, err := resp.Pack()
		if err != nil {
			continue
		}
		if corrupt {
			// A flipped transaction ID either matches no in-flight query or
			// lands on another query whose question will not validate — the
			// pipeline must count it Mismatched either way, never deliver it.
			dnswire.PatchID(out, ^resp.ID)
		}
		cr.pc.WriteToUDPAddrPort(out, src)
	}
}

func (cr *chaosResponder) counts() (dropped, corrupted, truncated, answered int) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.dropped, cr.corrupted, cr.truncated, cr.answered
}

// runPipelineChaos floods a faulty responder through a pipeline's one
// socket with concurrent workers and checks the two chaos invariants:
//
//  1. no cross-delivery — every successful response carries the answer
//     derived from its own query's name;
//  2. accounting balance — after every exchange has settled,
//     PipelineStats.Check holds.
//
// A slice of the workers cancel their context mid-flight to drive the
// Aborted class of the partition.
func runPipelineChaos(t *testing.T, cfg PipelineConfig) {
	t.Helper()
	plan := netem.FaultPlan{Loss: 0.15, Corrupt: 0.1}
	addr, cr := startChaosResponder(t, plan, 42)
	server := addr.String()
	p := newTestPipeline(t, cfg)

	const queries = 300
	const cancelEvery = 25 // every 25th query aborts mid-flight
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	sem := make(chan struct{}, workers)
	for i := 0; i < queries; i++ {
		i := i
		name := dnswire.MustParseName("q" + itoa(i) + ".chaos.test")
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ctx := context.Background()
			if i%cancelEvery == 0 {
				cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
				defer cancel()
				ctx = cctx
			}
			resp, err := p.Exchange(ctx, server, pipeQuery(name))
			if err != nil {
				// Canceled contexts surface as context errors, and a
				// query whose every UDP attempt was lost or corrupted
				// falls back to TCP, which the responder refuses;
				// anything else is a bug.
				if !errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, context.Canceled) {
					errs <- err
				}
				return
			}
			if len(resp.Answers) != 1 ||
				resp.Answers[0].Data.(*dnswire.ARData).Addr != hashAddr(name) ||
				resp.Question().Name != name {
				errs <- errors.New("cross-delivered response for " + string(name))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every Exchange has returned, so every submitted attempt has
	// settled: the ledger must balance exactly.
	st := p.Stats()
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
	dropped, corrupted, _, answered := cr.counts()
	t.Logf("responder: dropped=%d corrupted=%d answered=%d; stats: %+v",
		dropped, corrupted, answered, st)
	if st.Received == 0 {
		t.Fatal("no query survived the fault plan")
	}
	if dropped > 0 && st.Timeouts == 0 {
		t.Fatalf("responder dropped %d datagrams but the pipeline recorded no timeouts", dropped)
	}
	// Corrupted responses (ID bit-flip) must be rejected, not delivered:
	// each one shows up as a mismatch (unknown key, or sweep-side
	// question validation after landing on a colliding in-flight ID).
	if corrupted > 0 && st.Mismatched == 0 {
		t.Fatalf("responder corrupted %d responses but the pipeline recorded no mismatches", corrupted)
	}
}

// TestPipelineChaosAccounting runs the fault-injection flood.
func TestPipelineChaosAccounting(t *testing.T) {
	runPipelineChaos(t, PipelineConfig{Timeout: 150 * time.Millisecond})
}

// TestSweepChaosAccounting drives one Sweep at window 64 through the
// faulty responder — loss, ID flips and a truncation storm — and
// cancels it halfway through its probes. The sweep starts nothing after
// the cancel, done fires exactly once for every probe started, no answer
// reaches another probe, and the ledger balances.
func TestSweepChaosAccounting(t *testing.T) {
	plan := netem.FaultPlan{Loss: 0.15, Corrupt: 0.1, Truncate: 0.2}
	addr, cr := startChaosResponder(t, plan, 43)
	p := newTestPipeline(t, PipelineConfig{Timeout: 150 * time.Millisecond})

	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	names := make([]dnswire.Name, n)
	probed, ended := make([]int, n), make([]int, n)
	var inSlot [64]int // the probe each slot runs
	next := 0
	probe := func(slot int, q *dnswire.Message) (netip.AddrPort, error) {
		if next == n {
			return netip.AddrPort{}, io.EOF
		}
		i := next
		next++
		inSlot[slot] = i
		probed[i]++
		if i == n/2 {
			cancel()
		}
		names[i] = dnswire.MustParseName("s" + itoa(i) + ".chaos.test")
		*q = *pipeQuery(names[i])
		return addr, nil
	}
	answered := 0
	done := func(slot int, resp *dnswire.Message, _ time.Time, err error) {
		i := inSlot[slot]
		ended[i]++
		if err != nil {
			// A truncated answer falls back to TCP, which the responder
			// refuses; a probe the cancel cut short ends with it.
			if !errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, context.Canceled) {
				t.Errorf("probe %d: %v", i, err)
			}
			return
		}
		answered++
		if len(resp.Answers) != 1 ||
			resp.Answers[0].Data.(*dnswire.ARData).Addr != hashAddr(names[i]) ||
			resp.Question().Name != names[i] {
			t.Errorf("cross-delivered response for %s: %v", names[i], resp)
		}
	}
	if err := p.Sweep(ctx, 64, 0, nil, probe, done); err != context.Canceled {
		t.Fatalf("Sweep = %v, want context.Canceled", err)
	}
	started := 0
	for i := range probed {
		if ended[i] != probed[i] {
			t.Fatalf("probe %d: called %d times, ended %d times", i, probed[i], ended[i])
		}
		started += probed[i]
	}
	if started != n/2+1 {
		t.Fatalf("%d probes started, want the %d up to the cancel", started, n/2+1)
	}
	st := p.Stats()
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
	dropped, corrupted, truncated, _ := cr.counts()
	t.Logf("responder: dropped=%d corrupted=%d truncated=%d; %d answered; stats: %+v",
		dropped, corrupted, truncated, answered, st)
	if answered == 0 || st.Aborted != 0 {
		t.Fatalf("%d probes answered and %d attempts aborted, want some and none", answered, st.Aborted)
	}
	if dropped > 0 && st.Timeouts == 0 || corrupted > 0 && st.Mismatched == 0 || truncated > 0 && st.Truncated == 0 {
		t.Fatalf("responder dropped %d, corrupted %d and truncated %d; stats %+v miss one of them", dropped, corrupted, truncated, st)
	}
}

// TestPipelineCloseDuringFlood closes the pipeline while a flood is in
// flight: every outstanding exchange must fail fast (no hangs), and the
// ledger must still balance — a closed pipeline strands no attempt in
// an unaccounted state.
func TestPipelineCloseDuringFlood(t *testing.T) {
	plan := netem.FaultPlan{Loss: 0.5}
	addr, _ := startChaosResponder(t, plan, 7)
	server := addr.String()
	p, err := NewPipeline(PipelineConfig{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := dnswire.MustParseName("c" + itoa(i) + ".close.test")
			// Errors are expected — the pipeline is being torn down.
			p.Exchange(context.Background(), server, pipeQuery(name))
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("exchanges hung after Close")
	}
	st := p.Stats()
	if err := st.Check(); err != nil {
		t.Fatalf("%v after Close: %+v", err, st)
	}
}
