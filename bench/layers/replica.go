//go:build ecsbench

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/bench/stub"
	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
	"ecsdns/internal/upstreams"
)

// The traced run assembles an in-process replica of a workload's chain
// from the public constructors the commands use and records spans only
// in this file's wrappers, at the public seams: dnsserver.Handler,
// resolver.Transport / PoolTransport, and around the client call. One
// client with one request in flight, so every span between a send and
// its receive belongs to that request.
//
// The client switches the recorder on and off every traceBlock requests.
// Both halves run on the same warmed chain, interleaved, so the
// difference between their medians is the cost of recording and nothing
// else; switched off, a wrapper is one atomic load.

const traceBlock = 64

// span is one timed interval at a layer boundary.
type span struct {
	Req     int    `json:"req"`    // the client's sequence number
	Name    string `json:"name"`   // stub.exchange, front.handle, upstream.exchange, back.handle, scan.exchange
	Parent  string `json:"parent"` // the span that caused it; "" for the client's
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	req   int
	spans []span
}

// begin marks the start of the client's request req and says whether it
// is traced.
func (r *recorder) begin(req int) bool {
	on := req/traceBlock%2 == 1
	r.mu.Lock()
	r.req = req
	r.mu.Unlock()
	r.on.Store(on)
	return on
}

// start opens a span: the zero time when recording is off.
func (r *recorder) start() time.Time {
	if !r.on.Load() {
		return time.Time{}
	}
	return stub.Now()
}

// end closes a span opened by start.
func (r *recorder) end(name, parent string, start time.Time) {
	if start.IsZero() {
		return
	}
	end := stub.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{r.req, name, parent, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

type tracedHandler struct {
	rec          *recorder
	name, parent string
	next         dnsserver.Handler
}

func (h tracedHandler) HandleDNS(from netip.Addr, q *dnswire.Message) *dnswire.Message {
	start := h.rec.start()
	resp := h.next.HandleDNS(from, q)
	h.rec.end(h.name, h.parent, start)
	return resp
}

type tracedTransport struct {
	rec  *recorder
	next resolver.Transport
}

func (t tracedTransport) Exchange(from, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := t.rec.start()
	resp, rtt, err := t.next.Exchange(from, to, q)
	t.rec.end("upstream.exchange", "front.handle", start)
	return resp, rtt, err
}

type tracedPool struct {
	rec  *recorder
	next resolver.PoolTransport
}

func (t tracedPool) Exchange(from netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := t.rec.start()
	resp, rtt, err := t.next.Exchange(from, q)
	t.rec.end("upstream.exchange", "front.handle", start)
	return resp, rtt, err
}

// socketTransport and poolTransport are cmd/recursor's two adapters from
// the resolver's transports to real sockets, for one upstream.
type socketTransport struct {
	client   *dnsclient.Client
	upstream string
}

func (t *socketTransport) Exchange(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := stub.Now()
	resp, err := t.client.Exchange(t.upstream, q)
	return resp, stub.Now().Sub(start), err
}

type poolTransport struct {
	udp, tcp *dnsclient.Client
	upstream string
}

func (t *poolTransport) Exchange(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := stub.Now()
	resp, err := t.udp.ExchangeUDP(t.upstream, q)
	return resp, stub.Now().Sub(start), err
}

func (t *poolTransport) ExchangeTCP(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := stub.Now()
	resp, err := t.tcp.Exchange(t.upstream, q)
	return resp, stub.Now().Sub(start), err
}

// scopeOf maps authdns's -scope values the workloads use.
func scopeOf(spec string) authority.ScopeFunc {
	switch spec {
	case "":
		return authority.ScopeSourceMinus(4)
	case "echo":
		return authority.ScopeEcho()
	}
	n, err := strconv.Atoi(spec)
	must(err)
	return authority.ScopeFixed(uint8(n))
}

// startAuthority is authdns in process, with back.handle around the
// authority.
func startAuthority(w stub.Workload, rec *recorder, parent string) (addr string, srv *dnsserver.Server) {
	ttl := uint32(30)
	if w.AuthTTL > 0 {
		ttl = uint32(w.AuthTTL)
	}
	srv = dnsserver.New(tracedHandler{rec, "back.handle", parent, newAuthority(scopeOf(w.AuthScope), ttl)})
	bound, err := srv.Start("127.0.0.1:0")
	must(err)
	return bound.String(), srv
}

// replicaRun is what one replica window yields: the client-side latency
// in µs of the requests made with the recorder off and on.
type replicaRun struct {
	plain, traced []float64
}

func (r *replicaRun) add(traced bool, d time.Duration) {
	if us := float64(d.Nanoseconds()) / 1e3; traced {
		r.traced = append(r.traced, us)
	} else {
		r.plain = append(r.plain, us)
	}
}

// runServeReplica is stub -> dnsserver(resolver) -> client/pool ->
// dnsserver(authority) in one process, for one window.
func runServeReplica(w stub.Workload, seed int64, window time.Duration, rec *recorder) replicaRun {
	backAddr, back := startAuthority(w, rec, "upstream.exchange")
	defer back.Close()

	var res *resolver.Resolver
	if w.Pool {
		pool, err := upstreams.New(upstreams.Config{
			Upstreams: []upstreams.Upstream{{Addr: netip.MustParseAddr("192.0.2.1")}},
			Transport: &poolTransport{
				udp:      &dnsclient.Client{Retries: dnsclient.NoRetries},
				tcp:      &dnsclient.Client{ForceTCP: true},
				upstream: backAddr,
			},
			Now:        stub.Now,
			Concurrent: true,
			After:      stub.After,
		})
		must(err)
		defer pool.Wait()
		res = newResolver(w.CacheEntries, nil, tracedPool{rec, pool})
	} else {
		t := &socketTransport{client: &dnsclient.Client{}, upstream: backAddr}
		res = newResolver(w.CacheEntries, tracedTransport{rec, t}, nil)
	}
	front := dnsserver.New(tracedHandler{rec, "front.handle", "stub.exchange", res})
	frontAddr, err := front.Start("127.0.0.1:0")
	must(err)
	defer front.Close()

	client, err := stub.Dial(frontAddr.String())
	must(err)
	defer client.Close()
	gen := stub.NewGen(w, seed, 0, 1)
	for _, step := range gen.WarmupSteps() {
		for ; step > 0; step-- {
			_, err := client.Exchange(gen.Next(), w.Scope)
			must(err)
		}
	}
	var run replicaRun
	rec.t0 = stub.Now()
	for req, deadline := 0, rec.t0.Add(window); stub.Now().Before(deadline); req++ {
		traced := rec.begin(req)
		start := rec.start()
		rtt, err := client.Exchange(gen.Next(), w.Scope)
		must(err)
		rec.end("stub.exchange", "", start)
		run.add(traced, rtt)
	}
	return run
}

// runScanReplica is scanner.Engine -> dnsclient.Pipeline ->
// dnsserver(authority) in one process, one probe in flight, with the job
// cmd/ecsscan runs.
func runScanReplica(w stub.Workload, window time.Duration, rec *recorder) replicaRun {
	addr, back := startAuthority(w, rec, "scan.exchange")
	defer back.Close()
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: 3 * time.Second})
	must(err)
	defer pipe.Close()

	var run replicaRun
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec.t0 = stub.Now()
	deadline := rec.t0.Add(window)
	eng := &scanner.Engine{Concurrency: 1, Progress: scanner.NewProgress()}
	err = eng.Run(ctx, 1<<30, func(ctx context.Context, i int) error {
		name, err := zone.Prepend(fmt.Sprintf("bulk%d", i))
		must(err)
		q := dnswire.NewQuery(0, name, dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		traced := rec.begin(i)
		span := rec.start()
		start := stub.Now()
		resp, err := pipe.Exchange(ctx, addr, q)
		end := stub.Now()
		rec.end("scan.exchange", "", span)
		must(err)
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
			panic(fmt.Sprintf("scan replica: rcode=%s answers=%d", resp.RCode, len(resp.Answers)))
		}
		run.add(traced, end.Sub(start))
		if end.After(deadline) {
			cancel()
		}
		return nil
	})
	if err != nil && ctx.Err() == nil {
		must(err)
	}
	return run
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WindowS  float64 `json:"window_s"`
	Note     string  `json:"note"`
	Requests int     `json:"requests"`
	// Counts is the number of spans per boundary over the whole window:
	// upstream.exchange over stub.exchange is the miss ratio, measured
	// where the work happens.
	Counts map[string]int `json:"counts"`
	// P50US is the client-side median with the recorder on and off.
	P50US map[string]float64 `json:"p50_us"`
	// SelfUS is each layer's median self time per request: its span
	// minus the part its child spans cover.
	SelfUS map[string]float64 `json:"self_us"`
	// Spans are the first requests' spans, enough to read a few requests
	// end to end; the medians above use every request.
	Spans []span `json:"spans"`
}

// maxSpanRequests bounds how many requests' spans are written out.
const maxSpanRequests = 500

// replica runs a workload's chain and returns the trace.* rows.
func replica(w stub.Workload, seed int64, window time.Duration, tracePath string) map[string]float64 {
	rec := &recorder{}
	var run replicaRun
	if w.Scan {
		run = runScanReplica(w, window, rec)
	} else {
		run = runServeReplica(w, seed, window, rec)
	}
	plain, traced := stub.Median(run.plain), stub.Median(run.traced)

	// Per request: total time of each span name.
	root := "stub.exchange"
	if w.Scan {
		root = "scan.exchange"
	}
	counts := map[string]int{}
	perReq := map[int]map[string]float64{}
	for _, s := range rec.spans {
		counts[s.Name]++
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]float64{}
		}
		perReq[s.Req][s.Name] += float64(s.EndNS-s.StartNS) / 1e3
	}
	self := map[string][]float64{}
	for _, d := range perReq {
		if w.Scan {
			self["scan_pipeline"] = append(self["scan_pipeline"], d[root]-d["back.handle"])
		} else {
			self["front_io"] = append(self["front_io"], d[root]-d["front.handle"])
			self["resolver"] = append(self["resolver"], d["front.handle"]-d["upstream.exchange"])
			self["upstream_io"] = append(self["upstream_io"], d["upstream.exchange"]-d["back.handle"])
		}
		self["authority"] = append(self["authority"], d["back.handle"])
	}
	out := map[string]float64{
		"trace.replica_p50_us": plain,
		"trace.overhead_pct":   (traced - plain) / plain * 100,
	}
	file := traceFile{
		Workload: w.Name, Seed: seed, WindowS: window.Seconds(),
		Note:     "in-process replica of the chain, one client, one request in flight, host loopback; spans recorded only in bench/layers wrappers, on alternate blocks of 64 requests",
		Requests: len(perReq), Counts: counts,
		P50US:  map[string]float64{"untraced": plain, "traced": traced},
		SelfUS: map[string]float64{},
	}
	for _, layer := range []string{"front_io", "resolver", "upstream_io", "authority", "scan_pipeline"} {
		v := 0.0 // a layer the chain does not have takes no time
		if len(self[layer]) > 0 {
			v = stub.Median(self[layer])
		}
		out["trace."+layer+"_self_us"] = v
		file.SelfUS[layer] = v
	}
	for _, s := range rec.spans {
		if s.Req < 2*maxSpanRequests { // every other block is traced
			file.Spans = append(file.Spans, s)
		}
	}
	if tracePath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		must(err)
		must(os.WriteFile(tracePath, append(b, '\n'), 0o644))
	}
	return out
}
