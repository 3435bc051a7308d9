package dnsclient

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// fragResponder models a path whose large UDP responses fragment: it
// serves the same port over UDP and TCP. On UDP it applies the size legs
// of a netem.FaultPlan — responses bigger than the query's advertised
// payload come back as a bare TC=1 (question kept, sections and EDNS
// stripped, exactly netem's truncation shape), and responses above the
// fragmentation threshold are silently dropped with probability
// FragLoss. On TCP it always answers in full, so the pipeline's
// truncation→TCP ladder is the only way to an answer.
type fragResponder struct {
	udp  *net.UDPConn
	tcp  *net.TCPListener
	plan netem.FaultPlan
	rng  *rand.Rand

	mu          sync.Mutex
	fragDropped int
	truncated   int
	udpAnswered int
	tcpAnswered int

	wg sync.WaitGroup
}

func startFragResponder(t *testing.T, plan netem.FaultPlan, seed int64) (netip.AddrPort, *fragResponder) {
	t.Helper()
	// The kernel picks the UDP port without regard to TCP, where a
	// parallel test may hold the same number: move the pair to a fresh
	// port then, as dnsserver's listenPair does.
	var udp *net.UDPConn
	var tcp *net.TCPListener
	for tries := 8; ; tries-- {
		var err error
		udp, err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		port := udp.LocalAddr().(*net.UDPAddr).AddrPort().Port()
		tcp, err = net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)})
		if err == nil {
			break
		}
		udp.Close()
		if tries <= 1 || !errors.Is(err, syscall.EADDRINUSE) {
			t.Fatal(err)
		}
	}
	fr := &fragResponder{udp: udp, tcp: tcp, plan: plan, rng: rand.New(rand.NewSource(seed))}
	fr.wg.Add(2)
	go fr.udpLoop()
	go fr.tcpLoop()
	t.Cleanup(func() {
		udp.Close()
		tcp.Close()
		fr.wg.Wait()
	})
	return udp.LocalAddr().(*net.UDPAddr).AddrPort(), fr
}

func (fr *fragResponder) fragThreshold() int {
	if fr.plan.FragThreshold > 0 {
		return fr.plan.FragThreshold
	}
	return 1400
}

func (fr *fragResponder) udpLoop() {
	defer fr.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, src, err := fr.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		q := &dnswire.Message{}
		if err := dnswire.UnpackInto(q, buf[:n]); err != nil {
			continue
		}
		advertised := 512
		if q.EDNS != nil && int(q.EDNS.UDPSize) > advertised {
			advertised = int(q.EDNS.UDPSize)
		}
		// RNG and counters live on this goroutine; the lock orders them
		// against the test's final reads.
		fr.mu.Lock()
		drop := fr.plan.Payload > fr.fragThreshold() &&
			fr.plan.FragLoss > 0 && fr.rng.Float64() < fr.plan.FragLoss
		trunc := !drop && fr.plan.Payload > advertised
		switch {
		case drop:
			fr.fragDropped++
		case trunc:
			fr.truncated++
		default:
			fr.udpAnswered++
		}
		fr.mu.Unlock()
		if drop {
			continue
		}
		resp := dnswire.NewResponse(q)
		if trunc {
			// Bare truncation signal: TC=1, question retained, EDNS and
			// all sections stripped — the same shape netem injects.
			resp.Truncated = true
			resp.Authoritative = false
			resp.AuthenticData = false
			resp.EDNS = nil
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
		fr.udp.WriteToUDPAddrPort(out, src)
	}
}

func (fr *fragResponder) tcpLoop() {
	defer fr.wg.Done()
	for {
		conn, err := fr.tcp.AcceptTCP()
		if err != nil {
			return
		}
		fr.wg.Add(1)
		go fr.serveTCP(conn)
	}
}

// serveTCP answers length-prefixed queries in full until the peer hangs
// up — over TCP there is no payload budget, so no truncation and no
// fragmentation loss.
func (fr *fragResponder) serveTCP(conn *net.TCPConn) {
	defer fr.wg.Done()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var hdr [2]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		msg := make([]byte, binary.BigEndian.Uint16(hdr[:]))
		if _, err := io.ReadFull(conn, msg); err != nil {
			return
		}
		q := &dnswire.Message{}
		if err := dnswire.UnpackInto(q, msg); err != nil {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: q.Question().Name, TTL: 60,
			Data: &dnswire.ARData{Addr: hashAddr(q.Question().Name)},
		})
		out, err := resp.Pack()
		if err != nil {
			return
		}
		frame := make([]byte, 2+len(out))
		binary.BigEndian.PutUint16(frame, uint16(len(out)))
		copy(frame[2:], out)
		if _, err := conn.Write(frame); err != nil {
			return
		}
		fr.mu.Lock()
		fr.tcpAnswered++
		fr.mu.Unlock()
	}
}

func (fr *fragResponder) counts() (fragDropped, truncated, udpAnswered, tcpAnswered int) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.fragDropped, fr.truncated, fr.udpAnswered, fr.tcpAnswered
}

// TestPipelineTCPFallbackAccounting floods a fragmenting path: every UDP
// response exceeds the advertised payload (bare TC=1 back) and half are
// lost outright as fragments, so answers only arrive by climbing to TCP.
// The UDP ledger must balance exactly, every delivered answer must belong
// to its own query, and the fallback counters must show the ladder ran.
func TestPipelineTCPFallbackAccounting(t *testing.T) {
	plan := netem.FaultPlan{Payload: 60000, FragLoss: 0.5}
	addr, fr := startFragResponder(t, plan, 42)
	server := addr.String()
	p := newTestPipeline(t, PipelineConfig{Timeout: 150 * time.Millisecond})

	const queries = 200
	const cancelEvery = 25
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	sem := make(chan struct{}, workers)
	answered := int64(0)
	var ansMu sync.Mutex
	for i := 0; i < queries; i++ {
		i := i
		name := dnswire.MustParseName("f" + itoa(i) + ".frag.test")
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
				// What a timed-out or cancelled Exchange returns: the
				// query's own deadline, for a query given one, or the
				// TCP fallback's timeout. Over 20 runs only the first
				// came.
				if !errors.Is(err, os.ErrDeadlineExceeded) &&
					!(i%cancelEvery == 0 && errors.Is(err, context.DeadlineExceeded)) {
					errs <- err
				}
				return
			}
			if resp.Truncated {
				errs <- errors.New("truncated response delivered despite TCP fallback for " + string(name))
				return
			}
			if len(resp.Answers) != 1 ||
				resp.Answers[0].Data.(*dnswire.ARData).Addr != hashAddr(name) ||
				resp.Question().Name != name {
				errs <- errors.New("cross-delivered response for " + string(name))
				return
			}
			ansMu.Lock()
			answered++
			ansMu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := p.Stats()
	if st.Sent != st.Received+st.Timeouts+st.Aborted+st.SendErrors {
		t.Fatalf("accounting imbalance: Sent=%d != Received=%d + Timeouts=%d + Aborted=%d + SendErrors=%d",
			st.Sent, st.Received, st.Timeouts, st.Aborted, st.SendErrors)
	}
	fragDropped, truncated, udpAnswered, tcpAnswered := fr.counts()
	t.Logf("responder: fragDropped=%d truncated=%d udpAnswered=%d tcpAnswered=%d; answered=%d; stats: %+v",
		fragDropped, truncated, udpAnswered, tcpAnswered, answered, st)
	if udpAnswered != 0 {
		t.Fatalf("responder answered %d queries over UDP despite Payload=%d", udpAnswered, plan.Payload)
	}
	if answered == 0 {
		t.Fatal("no query climbed the ladder to an answer")
	}
	if st.Truncated == 0 || st.TCPFallbacks == 0 {
		t.Fatalf("fallback ladder never ran: Truncated=%d TCPFallbacks=%d", st.Truncated, st.TCPFallbacks)
	}
	if tcpAnswered == 0 {
		t.Fatal("no answer was served over TCP")
	}
	if fragDropped > 0 && st.Timeouts == 0 {
		t.Fatalf("responder fragment-dropped %d datagrams but the pipeline recorded no timeouts", fragDropped)
	}
}

// TestPipelineTCPFallbackGating checks the payload comparison gates the
// ladder: responses that fit the advertised EDNS budget stay on UDP, with
// zero truncations and zero TCP fallbacks.
func TestPipelineTCPFallbackGating(t *testing.T) {
	// 2000 > the 1400 default fragmentation threshold would apply, but
	// FragLoss is zero; 2000 < the 4096 the query advertises, so no
	// truncation either: pure UDP service.
	plan := netem.FaultPlan{Payload: 2000}
	addr, fr := startFragResponder(t, plan, 7)
	server := addr.String()
	p := newTestPipeline(t, PipelineConfig{Timeout: time.Second})
	for i := 0; i < 40; i++ {
		name := dnswire.MustParseName("g" + itoa(i) + ".frag.test")
		resp, err := p.Exchange(context.Background(), server, pipeQuery(name))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Answers[0].Data.(*dnswire.ARData).Addr; got != hashAddr(name) {
			t.Fatalf("cross-delivered response for %s", name)
		}
	}
	st := p.Stats()
	if st.Truncated != 0 || st.TCPFallbacks != 0 {
		t.Fatalf("sub-payload responses escalated: Truncated=%d TCPFallbacks=%d", st.Truncated, st.TCPFallbacks)
	}
	_, truncated, udpAnswered, tcpAnswered := fr.counts()
	if truncated != 0 || tcpAnswered != 0 || udpAnswered != 40 {
		t.Fatalf("responder counts: truncated=%d udpAnswered=%d tcpAnswered=%d", truncated, udpAnswered, tcpAnswered)
	}
	if st.Sent != st.Received+st.Timeouts+st.Aborted+st.SendErrors {
		t.Fatalf("accounting imbalance: %+v", st)
	}
}
