package resolver

import (
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/netem"
)

// hopAt is one upstream A query for name at the authority auth, zone
// test.example., from clientAddr's /24, at netem.SimStart.
func hopAt(auth netip.Addr, name dnswire.Name, clientAddr netip.Addr) input {
	return input{
		auth:   auth,
		zone:   "test.example.",
		q:      dnswire.Question{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET},
		now:    netem.SimStart,
		client: client{addr: clientAddr, bits: 24},
	}
}

func TestECSDecisionTable(t *testing.T) {
	auth := netip.MustParseAddr("203.0.113.53")
	clientAddr := netip.MustParseAddr("192.0.2.77")
	probe := dnswire.MustParseName("probe.test.example.")
	other := dnswire.MustParseName("other.test.example.")
	aQ := func(n dnswire.Name) dnswire.Question {
		return dnswire.Question{Name: n, Type: dnswire.TypeA, Class: dnswire.ClassINET}
	}

	cases := []struct {
		name         string
		profile      Profile
		zone         dnswire.Name
		q            dnswire.Question
		withinMinute bool
		wantAttach   bool
		wantSubnet   ecsopt.ClientSubnet
	}{
		{
			name:       "never strategy sends nothing",
			profile:    NonECSProfile(),
			q:          aQ(other),
			wantAttach: false,
		},
		{
			name:       "always strategy sends client /24",
			profile:    GoogleLikeProfile(),
			q:          aQ(other),
			wantAttach: true,
			wantSubnet: ecsopt.MustNew(clientAddr, 24),
		},
		{
			name:       "no ECS to the root zone",
			profile:    GoogleLikeProfile(),
			zone:       dnswire.Root,
			q:          aQ(other),
			wantAttach: false,
		},
		{
			name: "SendECSToRoot violation sends anyway",
			profile: func() Profile {
				p := GoogleLikeProfile()
				p.SendECSToRoot = true
				return p
			}(),
			zone:       dnswire.Root,
			q:          aQ(other),
			wantAttach: true,
			wantSubnet: ecsopt.MustNew(clientAddr, 24),
		},
		{
			name:       "no ECS on NS queries by default",
			profile:    GoogleLikeProfile(),
			q:          dnswire.Question{Name: other, Type: dnswire.TypeNS, Class: dnswire.ClassINET},
			wantAttach: false,
		},
		{
			name: "hostname prober fires on a probe name",
			profile: Profile{
				Probing:      ProbeHostnames,
				ProbeNames:   []dnswire.Name{probe},
				V4SourceBits: 24,
			},
			q:          aQ(probe),
			wantAttach: true,
			wantSubnet: ecsopt.MustNew(clientAddr, 24),
		},
		{
			name: "hostname prober skips other names",
			profile: Profile{
				Probing:      ProbeHostnames,
				ProbeNames:   []dnswire.Name{probe},
				V4SourceBits: 24,
			},
			q:          aQ(other),
			wantAttach: false,
		},
		{
			name: "hostname prober with empty set probes everything",
			profile: Profile{
				Probing:      ProbeHostnames,
				V4SourceBits: 24,
			},
			q:          aQ(other),
			wantAttach: true,
			wantSubnet: ecsopt.MustNew(clientAddr, 24),
		},
		{
			name: "on-miss prober fires outside the recency window",
			profile: Profile{
				Probing:      ProbeOnMiss,
				ProbeNames:   []dnswire.Name{probe},
				V4SourceBits: 24,
			},
			q:            aQ(probe),
			withinMinute: false,
			wantAttach:   true,
			wantSubnet:   ecsopt.MustNew(clientAddr, 24),
		},
		{
			name: "on-miss prober suppressed within the minute",
			profile: Profile{
				Probing:      ProbeOnMiss,
				ProbeNames:   []dnswire.Name{probe},
				V4SourceBits: 24,
			},
			q:            aQ(probe),
			withinMinute: true,
			wantAttach:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := hopAt(auth, tc.q.Name, clientAddr)
			in.q, in.withinMinute = tc.q, tc.withinMinute
			if tc.zone != "" {
				in.zone = tc.zone
			}
			st := newProbeState(7)
			d := decide(tc.profile, &st, in)
			if d.attach != tc.wantAttach {
				t.Fatalf("attach = %v, want %v", d.attach, tc.wantAttach)
			}
			if d.attach && d.opt != tc.wantSubnet {
				t.Fatalf("subnet = %v, want %v", d.opt, tc.wantSubnet)
			}
		})
	}
}

func TestECSDecisionIntervalProbing(t *testing.T) {
	auth := netip.MustParseAddr("203.0.113.53")
	clientAddr := netip.MustParseAddr("192.0.2.77")
	probe := dnswire.MustParseName("probe.test.example.")
	p := LoopbackProberProfile()
	p.ProbeNames = []dnswire.Name{probe}
	st := newProbeState(7)
	at := func(auth netip.Addr, name dnswire.Name, after time.Duration) decision {
		in := hopAt(auth, name, clientAddr)
		in.now = in.now.Add(after)
		return decide(p, &st, in)
	}

	// First probe fires and carries the loopback address.
	if d := at(auth, probe, 0); !d.attach || d.opt != ecsopt.MustNew(LoopbackAddr, 32) {
		t.Fatalf("first interval probe: %+v", d)
	}
	// Within the interval the probe is suppressed.
	if at(auth, probe, 10*time.Minute).attach {
		t.Fatal("probe fired again inside the 30-minute interval")
	}
	// A non-probe name must not consume the interval slot: 35 minutes
	// after the first probe it is due again...
	if at(auth, "other.test.example.", 35*time.Minute).attach {
		t.Fatal("non-probe name carried an interval probe")
	}
	// ...so the probe string itself still fires.
	if !at(auth, probe, 35*time.Minute).attach {
		t.Fatal("interval probe did not fire after the interval elapsed")
	}
	// Per-authority state: a different authority probes independently.
	if !at(netip.MustParseAddr("203.0.113.99"), probe, 35*time.Minute).attach {
		t.Fatal("interval state leaked across authorities")
	}
}

func TestECSDecisionPrefixAdaptation(t *testing.T) {
	auth := netip.MustParseAddr("203.0.113.53")
	other := netip.MustParseAddr("203.0.113.99")
	clientAddr := netip.MustParseAddr("192.0.2.77")
	const name = dnswire.Name("a.test.example.")
	st := newProbeState(7)

	// Nothing learned yet: the full /24 goes out.
	if d := decide(AdaptiveProfile(), &st, hopAt(auth, name, clientAddr)); !d.attach || d.opt.SourcePrefix != 24 {
		t.Fatalf("pre-adaptation: %+v", d)
	}
	// The authority returned scope /20 at some point; the resolver must
	// now shed the extra client bits for that authority only.
	st.learn(auth, 20)
	if d := decide(AdaptiveProfile(), &st, hopAt(auth, name, clientAddr)); d.opt != ecsopt.MustNew(clientAddr, 20) {
		t.Fatalf("adapted subnet = %v, want %v", d.opt, ecsopt.MustNew(clientAddr, 20))
	}
	if d := decide(AdaptiveProfile(), &st, hopAt(other, name, clientAddr)); d.opt.SourcePrefix != 24 {
		t.Fatalf("adaptation leaked to an unlearned authority: %v", d.opt)
	}
	// Without the profile flag the learned scope is ignored.
	if d := decide(GoogleLikeProfile(), &st, hopAt(auth, name, clientAddr)); d.opt.SourcePrefix != 24 {
		t.Fatalf("non-adaptive profile shed bits: %v", d.opt)
	}
	// A learned scope longer than the source must never widen it.
	wide := newProbeState(7)
	wide.learn(auth, 28)
	if d := decide(AdaptiveProfile(), &wide, hopAt(auth, name, clientAddr)); d.opt.SourcePrefix != 24 {
		t.Fatalf("learned scope /28 widened the source: %v", d.opt)
	}
}
