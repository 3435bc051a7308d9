package ecscache

import (
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// Address kinds the fuzzer draws: the last four bytes as IPv4, all
// sixteen as IPv6, the last four IPv4-mapped, and no address at all.
const (
	fuzzV4 = iota
	fuzzV6
	fuzz4in6
	fuzzInvalid
)

// fuzzEntry builds the Entry FuzzEntryRoundTrip inserts.
func fuzzEntry(family uint16, ip []byte, kind uint8, hasECS bool, source, scope uint8, rcode uint16,
	expKind uint8, exp int64, nrec uint8, inAuthority bool) Entry {
	var b [16]byte
	copy(b[:], ip)
	var a netip.Addr
	switch kind % 4 {
	case fuzzV4:
		a = netip.AddrFrom4([4]byte(b[12:]))
	case fuzzV6:
		a = netip.AddrFrom16(b)
	case fuzz4in6:
		a = netip.AddrFrom16(netip.AddrFrom4([4]byte(b[12:])).As16())
	}
	e := Entry{
		Subnet: ecsopt.ClientSubnet{Family: ecsopt.Family(family), SourcePrefix: source, ScopePrefix: scope, Addr: a},
		HasECS: hasECS,
		RCode:  dnswire.RCode(rcode),
	}
	switch expKind % 3 {
	case 0: // the zero Time, before UnixNano's range
	case 1: // within ±292 years of t0
		e.Expiry = t0.Add(time.Duration(exp))
	case 2: // past year 2262, after UnixNano's range
		e.Expiry = time.Date(2263+int(uint64(exp)%100000), 1, 1, 0, 0, 0, int(uint64(exp)%1e9), time.UTC)
	}
	for i := 0; i < int(nrec%3); i++ {
		rr := dnswire.RR{Name: "fuzz.example.", Class: dnswire.ClassINET, TTL: uint32(exp) + uint32(i),
			Data: &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{b[i], b[i+1], b[i+2], byte(i)})}}
		if i == 1 && inAuthority {
			e.Authority = append(e.Authority, rr)
		} else {
			e.Answer = append(e.Answer, rr)
		}
	}
	return e
}

// FuzzEntryRoundTrip inserts one entry drawn from the whole input space
// — every address kind, family, source, scope and rcode, an expiry that
// may be the zero Time, in the past or past year 2262, and zero to two
// records — and reads it back at a client it covers, under HonorScope
// and IgnoreScope. A live entry comes back from Lookup and an expired
// positive one from LookupStale, equal to what went in once the TTL
// clamps are applied; an expired negative one from neither. The only way
// out is an insert counted as Rejected. Stored is not kept and reads
// zero.
func FuzzEntryRoundTrip(f *testing.F) {
	v4 := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 203, 0, 113, 0}
	v6 := []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0x42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	hour, minute := int64(time.Hour), int64(time.Minute)
	// family, ip, kind, hasECS, source, scope, rcode, expKind, exp, life, nrec, inAuthority
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(24), uint16(0), uint8(1), hour, minute, uint8(1), false)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(32), uint8(32), uint16(0), uint8(1), hour, minute, uint8(2), true)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(33), uint16(0), uint8(1), hour, minute, uint8(1), false)
	f.Add(uint16(2), v6, uint8(fuzzV6), true, uint8(56), uint8(48), uint16(0), uint8(1), hour, minute, uint8(2), false)
	f.Add(uint16(2), v6, uint8(fuzzV6), true, uint8(128), uint8(128), uint16(0), uint8(1), hour, minute, uint8(0), false)
	f.Add(uint16(2), v6, uint8(fuzzV6), true, uint8(255), uint8(129), uint16(0), uint8(1), hour, minute, uint8(1), false)
	f.Add(uint16(2), v4, uint8(fuzz4in6), true, uint8(120), uint8(120), uint16(0), uint8(1), hour, minute, uint8(1), false)
	f.Add(uint16(0), v4, uint8(fuzzInvalid), true, uint8(0), uint8(0), uint16(0), uint8(1), hour, minute, uint8(1), false)
	f.Add(uint16(7), v6, uint8(fuzzInvalid), false, uint8(9), uint8(200), uint16(0), uint8(1), hour, minute, uint8(1), false)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(0), uint16(3), uint8(1), hour, hour, uint8(0), false)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(24), uint16(0xfff), uint8(1), -hour, minute, uint8(2), true)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(24), uint16(0), uint8(0), int64(0), minute, uint8(1), false)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(24), uint16(0), uint8(0), int64(0), -minute, uint8(1), false)
	f.Add(uint16(2), v6, uint8(fuzzV6), true, uint8(64), uint8(64), uint16(0), uint8(2), hour, minute, uint8(1), false)
	f.Add(uint16(2), v6, uint8(fuzzV6), true, uint8(64), uint8(64), uint16(0), uint8(2), hour, -minute, uint8(1), false)
	f.Add(uint16(1), v4, uint8(fuzzV4), true, uint8(24), uint8(24), uint16(0), uint8(1), -200*365*24*hour, int64(0), uint8(1), false)
	f.Fuzz(func(t *testing.T, family uint16, ip []byte, kind uint8, hasECS bool, source, scope uint8, rcode uint16,
		expKind uint8, exp, life int64, nrec uint8, inAuthority bool) {
		e := fuzzEntry(family, ip, kind, hasECS, source, scope, rcode, expKind, exp, nrec, inAuthority)
		// life > 0: inserted and read back live; otherwise already dead.
		life %= int64(2 * time.Hour)
		now := e.Expiry.Add(-time.Duration(life))
		e.Stored = now
		for _, cfg := range []Config{
			{Mode: HonorScope, ClampScopeToSource: true},
			{Mode: IgnoreScope},
		} {
			client := e.Subnet.Addr
			if !e.HasECS || cfg.Mode == IgnoreScope {
				client = netip.MustParseAddr("192.0.2.1")
			} else if client.Is4In6() {
				continue // its slot is IPv6, and a lookup unmaps every client
			}
			c := New(cfg)
			c.Insert(keyA, e, now)
			if st := c.Stats(); st.Rejected > 0 {
				if !e.HasECS {
					t.Fatalf("mode %d: a non-ECS entry was rejected: %+v", cfg.Mode, e)
				}
				continue
			}
			want := e
			want.Stored = time.Time{}
			c.clampTTL(&want, now)
			var got *Entry
			if want.Expiry.After(now) {
				got = hit(c.Lookup(keyA, client, now))
			} else {
				got = hit(c.LookupStale(keyA, client, now, time.Duration(-life)+time.Second))
				if want.RCode != dnswire.RCodeNoError || len(want.Answer) == 0 {
					if got != nil {
						t.Fatalf("mode %d: an expired non-positive entry served stale: %+v", cfg.Mode, *got)
					}
					continue
				}
			}
			if got == nil || !sameHit(&want, got) || got.Subnet != want.Subnet || !got.Stored.IsZero() {
				t.Fatalf("mode %d: inserted %+v at %v,\nread back %+v", cfg.Mode, want, now, got)
			}
		}
	})
}
