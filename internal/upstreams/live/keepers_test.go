package live

import (
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
)

// The tests below hold each handler that keeps a served name to the one
// name rule: a query's names are borrowed for the call, views of the
// Message the server decodes the next query into, and a keeper copies a
// name at the moment it keeps it. Each asks a live one-worker server
// over one UDP socket and over one TCP connection, so the next query is
// decoded into the Message that held the kept one; the names asked are
// all of one length, so a kept view reads as another name, and in race
// builds, which poison a rewritten arena, as garbage.

// transports are the two ways a keeper test reaches the server.
var transports = []string{"udp", "tcp"}

// asker sends queries to a server over one connection and returns the
// answers, so every query after the first is decoded into the Message
// the server decoded the one before into.
type asker struct {
	t    *testing.T
	conn net.Conn
	tcp  bool
	id   uint16
}

func newAsker(t *testing.T, network string, addr netip.AddrPort) *asker {
	t.Helper()
	conn, err := net.DialTimeout(network, addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &asker{t: t, conn: conn, tcp: network == "tcp"}
}

// ask sends an A query for name, with an empty OPT, and requires an
// answer.
func (a *asker) ask(name dnswire.Name) *dnswire.Message {
	a.t.Helper()
	a.id++
	q := dnswire.NewQuery(a.id, name, dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	wire, err := q.Pack()
	if err != nil {
		a.t.Fatal(err)
	}
	a.conn.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	if a.tcp {
		wire = append(binary.BigEndian.AppendUint16(nil, uint16(len(wire))), wire...)
	}
	if _, err := a.conn.Write(wire); err != nil {
		a.t.Fatal(err)
	}
	var n int
	if a.tcp {
		if _, err = io.ReadFull(a.conn, buf[:2]); err == nil {
			n = int(binary.BigEndian.Uint16(buf))
			_, err = io.ReadFull(a.conn, buf[:n])
		}
	} else {
		n, err = a.conn.Read(buf)
	}
	if err != nil {
		a.t.Fatalf("query %d for %s: %v", a.id, name, err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil || resp.ID != a.id {
		a.t.Fatalf("query %d for %s: reply %v, %v", a.id, name, resp, err)
	}
	return resp
}

// keeperStep is one step of a keeper test's script: ask for label under
// heldZone, after moving the clock on by advance.
type keeperStep struct {
	label   string
	advance time.Duration
}

// TestResolverKeepersCopyNames runs a script of queries through a
// resolver behind a live one-worker server, over UDP and over TCP, and
// requires the upstream to see what it sees when the same resolver is
// asked in process with a Message of the caller's own for every query,
// whose names nothing rewrites: the same queries, each with ECS or
// without. Each row exercises one thing the resolver keeps by name.
//   - A new cache question is filed under its name: asked again, the
//     name must be a hit, not a second upstream query.
//   - ProbeOnMiss's last-seen time is kept by name, and updated in place
//     by every query, a hit included: a name asked again within the
//     minute, once its answer has expired, goes without ECS.
//   - ProbeRandom's coin is drawn once per name: a forgotten name draws
//     again, and the draws that follow, ECS or not, change.
func TestResolverKeepersCopyNames(t *testing.T) {
	for _, row := range []struct {
		name    string
		probing resolver.ProbeStrategy
		script  []keeperStep
	}{
		{"cache question", resolver.ProbeAlways, []keeperStep{{"kaaa", 0}, {"kbbb", 0}, {"kaaa", 0}, {"kbbb", 0}}},
		{"ProbeOnMiss last seen", resolver.ProbeOnMiss, []keeperStep{
			{"maaa", 0}, {"mbbb", 0}, {"maaa", 0}, // the third a hit, on the read loop over UDP
			{"maaa", 40 * time.Second}, {"mbbb", 0}, {"maaa", 40 * time.Second}, {"mbbb", 0},
		}},
		{"ProbeRandom coins", resolver.ProbeRandom, randomScript()},
	} {
		p := resolver.GoogleLikeProfile()
		p.Probing = row.probing
		want := keeperRun(t, p, row.script, "")
		for _, network := range transports {
			t.Run(row.name+"/"+network, func(t *testing.T) {
				if got := keeperRun(t, p, row.script, network); !slices.Equal(got, want) {
					t.Fatalf("upstream queries carried ECS %v, want %v as asked in process: a name the resolver kept was rewritten by a later query", got, want)
				}
			})
		}
	}
}

// randomScript asks three names in turn, eight rounds, each round after
// their answers have expired, so every query is a miss and ProbeRandom
// decides it.
func randomScript() []keeperStep {
	var s []keeperStep
	for round := 0; round < 8; round++ {
		for i, label := range []string{"raaa", "rbbb", "rccc"} {
			var advance time.Duration
			if round > 0 && i == 0 {
				advance = 31 * time.Second
			}
			s = append(s, keeperStep{label, advance})
		}
	}
	return s
}

// keeperRun asks script of a resolver with profile p over an upstream
// answering for 30 s, through a one-worker server over network, or in
// process when network is empty, and returns whether each upstream
// query carried ECS.
func keeperRun(t *testing.T, p resolver.Profile, script []keeperStep, network string) []bool {
	t.Helper()
	up := &heldUpstream{ttl: 30}
	clk := netem.NewClock(netem.SimStart)
	dir := resolver.NewDirectory()
	dir.Add(heldZone, netip.MustParseAddr("203.0.113.53"))
	res := resolver.New(resolver.Config{
		Addr: netip.MustParseAddr("127.0.0.1"), Transport: up, Now: clk.Now,
		Directory: dir, Profile: p, Seed: 1,
	})
	ask := func(name dnswire.Name) *dnswire.Message {
		q := dnswire.NewQuery(1, name, dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		return res.HandleDNS(netip.MustParseAddr("127.0.0.1"), q)
	}
	if network != "" {
		ask = newAsker(t, network, serveOneWorker(t, res)).ask
	}
	for _, step := range script {
		clk.Advance(step.advance)
		name := dnswire.Name(step.label + "." + heldZone)
		if resp := ask(name); len(resp.Answers) != 1 || resp.Answers[0].Name != name {
			t.Fatalf("%s answered %v", name, resp.Answers)
		}
	}
	return up.sent()
}

// TestAuthorityLogKeepsNames serves an authority with a log sink, a
// scanner.LogBuffer, on a live one-worker server, and asks it three names
// over UDP and over TCP: each logged record must name its own query.
func TestAuthorityLogKeepsNames(t *testing.T) {
	for _, network := range transports {
		t.Run(network, func(t *testing.T) {
			auth := authority.NewServer(authority.Config{ECSEnabled: true})
			z := authority.NewZone(heldZone, 300)
			z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
			auth.AddZone(z)
			logs := &scanner.LogBuffer{}
			auth.SetLog(logs.Append)
			a := newAsker(t, network, serveOneWorker(t, auth))
			want := []dnswire.Name{"laaa." + heldZone, "lbbb." + heldZone, "lccc." + heldZone}
			for _, name := range want {
				a.ask(name)
			}
			var got []dnswire.Name
			for _, rec := range logs.All() {
				got = append(got, rec.Name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("the log reads %q, want %q: a record kept its query's name uncopied", got, want)
			}
		})
	}
}
