package ecsopt

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"ecsdns/internal/dnswire"
)

func TestNewMasksAddress(t *testing.T) {
	cs, err := New(netip.MustParseAddr("192.0.2.213"), 24)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Addr != netip.MustParseAddr("192.0.2.0") {
		t.Fatalf("address not masked: %s", cs.Addr)
	}
	if cs.Family != FamilyIPv4 || cs.SourcePrefix != 24 || cs.ScopePrefix != 0 {
		t.Fatalf("fields wrong: %+v", cs)
	}
}

func TestNewIPv6(t *testing.T) {
	cs, err := New(netip.MustParseAddr("2001:db8:1234:5678::42"), 56)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Family != FamilyIPv6 {
		t.Fatalf("family = %v", cs.Family)
	}
	if cs.Addr != netip.MustParseAddr("2001:db8:1234:5600::") {
		t.Fatalf("masked addr = %s", cs.Addr)
	}
}

func TestNewUnmaps4In6(t *testing.T) {
	cs, err := New(netip.MustParseAddr("::ffff:192.0.2.7"), 24)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Family != FamilyIPv4 || !cs.Addr.Is4() {
		t.Fatalf("4-in-6 not unmapped: %+v", cs)
	}
}

func TestNewRejectsOversizePrefix(t *testing.T) {
	if _, err := New(netip.MustParseAddr("192.0.2.1"), 33); err != ErrPrefixTooLong {
		t.Fatalf("got %v, want ErrPrefixTooLong", err)
	}
	if _, err := New(netip.MustParseAddr("2001:db8::1"), 129); err != ErrPrefixTooLong {
		t.Fatalf("got %v, want ErrPrefixTooLong", err)
	}
}

func TestEncodeTruncatesAddress(t *testing.T) {
	cs := MustNew(netip.MustParseAddr("192.0.2.213"), 24)
	opt := cs.Encode()
	if opt.Code != dnswire.OptionCodeECS {
		t.Fatalf("option code = %d", opt.Code)
	}
	// family(2) + prefixes(2) + 3 address bytes for /24.
	if len(opt.Data) != 7 {
		t.Fatalf("encoded length = %d, want 7", len(opt.Data))
	}
	want := []byte{0, 1, 24, 0, 192, 0, 2}
	for i, b := range want {
		if opt.Data[i] != b {
			t.Fatalf("byte %d = %#x, want %#x (%x)", i, opt.Data[i], b, opt.Data)
		}
	}
}

func TestEncodeOddPrefix(t *testing.T) {
	// /25 needs 4 address bytes; bit 25 onward must be zero.
	cs := MustNew(netip.MustParseAddr("192.0.2.213"), 25)
	opt := cs.Encode()
	if len(opt.Data) != 8 {
		t.Fatalf("encoded length = %d, want 8", len(opt.Data))
	}
	if opt.Data[7] != 0x80 { // 213 = 0b11010101 → top bit survives /25
		t.Fatalf("last byte = %#x, want 0x80", opt.Data[7])
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		addr string
		src  int
	}{
		{"192.0.2.213", 24},
		{"192.0.2.213", 32},
		{"10.0.0.0", 8},
		{"203.0.113.96", 21},
		{"2001:db8::1", 48},
		{"2001:db8:abcd:ef01::1", 56},
		{"192.0.2.1", 0},
	} {
		cs := MustNew(netip.MustParseAddr(tc.addr), tc.src)
		got, err := Decode(cs.Encode())
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.addr, tc.src, err)
		}
		if got != cs {
			t.Fatalf("%s/%d: round trip %+v != %+v", tc.addr, tc.src, got, cs)
		}
	}
}

func TestDecodeZeroOption(t *testing.T) {
	got, err := Decode(Zero().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsZero() {
		t.Fatalf("zero option decoded as %+v", got)
	}
}

func TestDecodeRejectsTrailingBits(t *testing.T) {
	opt := dnswire.Option{
		Code: dnswire.OptionCodeECS,
		// /24 with a fourth address byte implied by... actually /24 with
		// nonzero bits inside the third byte beyond bit 20.
		Data: []byte{0, 1, 20, 0, 192, 0, 0x2F},
	}
	if _, err := Decode(opt); err != ErrTrailingBits {
		t.Fatalf("got %v, want ErrTrailingBits", err)
	}
	cs, err := DecodeLenient(opt)
	if err != nil {
		t.Fatalf("lenient: %v", err)
	}
	// /20 keeps the top 4 bits of the third byte: 0x2F → 0x20.
	if cs.Addr != netip.MustParseAddr("192.0.32.0") {
		t.Fatalf("lenient masked = %s", cs.Addr)
	}
}

func TestDecodeRejectsBadLengths(t *testing.T) {
	cases := []struct {
		data []byte
		err  error
	}{
		{[]byte{0, 1, 24}, ErrShortOption},
		{[]byte{0, 1, 24, 0, 192, 0}, ErrAddressLength},       // 2 bytes for /24
		{[]byte{0, 1, 24, 0, 192, 0, 2, 1}, ErrAddressLength}, // 4 bytes for /24
		{[]byte{0, 3, 24, 0, 192, 0, 2}, ErrBadFamily},
		{[]byte{0, 1, 33, 0, 192, 0, 2, 1, 9}, ErrPrefixTooLong},
		{[]byte{0, 1, 24, 40, 192, 0, 2}, ErrScopeTooLong},
		{[]byte{0, 0, 8, 0, 10}, ErrMissingFamily},
	}
	for i, c := range cases {
		_, err := Decode(dnswire.Option{Code: dnswire.OptionCodeECS, Data: c.data})
		if err != c.err {
			t.Errorf("case %d: got %v, want %v", i, err, c.err)
		}
	}
}

func TestDecodeLenientTruncatesLongAddress(t *testing.T) {
	opt := dnswire.Option{
		Code: dnswire.OptionCodeECS,
		Data: []byte{0, 1, 24, 0, 192, 0, 2, 99}, // extra byte
	}
	cs, err := DecodeLenient(opt)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Addr != netip.MustParseAddr("192.0.2.0") {
		t.Fatalf("addr = %s", cs.Addr)
	}
}

func TestCovers(t *testing.T) {
	cs := MustNew(netip.MustParseAddr("192.0.2.0"), 24)
	cases := []struct {
		addr string
		bits int
		want bool
	}{
		{"192.0.2.99", 24, true},
		{"192.0.3.99", 24, false},
		{"192.0.3.99", 16, true},
		{"192.0.2.1", 0, true},
		{"10.9.9.9", 0, true}, // scope 0 covers the family
		{"2001:db8::1", 24, false},
		{"2001:db8::1", 0, false}, // wrong family
	}
	for _, c := range cases {
		if got := cs.Covers(netip.MustParseAddr(c.addr), c.bits); got != c.want {
			t.Errorf("Covers(%s, %d) = %v, want %v", c.addr, c.bits, got, c.want)
		}
	}
}

func TestCoversUnmapsClient(t *testing.T) {
	cs := MustNew(netip.MustParseAddr("192.0.2.0"), 24)
	if !cs.Covers(netip.MustParseAddr("::ffff:192.0.2.50"), 24) {
		t.Fatal("4-in-6 client not covered")
	}
}

func TestPrefix(t *testing.T) {
	cs := MustNew(netip.MustParseAddr("192.0.2.213"), 24).WithScope(16)
	if got := cs.Prefix(); got != netip.MustParsePrefix("192.0.2.0/24") {
		t.Fatalf("Prefix = %s", got)
	}
}

func TestClampScope(t *testing.T) {
	if ClampScope(24, 16) != 16 {
		t.Error("scope shorter than source must pass through")
	}
	if ClampScope(24, 32) != 24 {
		t.Error("scope longer than source must clamp to source")
	}
	if ClampScope(24, 24) != 24 {
		t.Error("equal scope must pass through")
	}
}

func TestValidateQuery(t *testing.T) {
	cs := MustNew(netip.MustParseAddr("192.0.2.0"), 24)
	if err := ValidateQuery(cs); err != nil {
		t.Fatalf("valid query option rejected: %v", err)
	}
	if err := ValidateQuery(cs.WithScope(24)); err != ErrScopeInQuery {
		t.Fatalf("got %v, want ErrScopeInQuery", err)
	}
}

func TestIsRoutable(t *testing.T) {
	cases := []struct {
		addr string
		bits int
		want bool
	}{
		{"127.0.0.1", 32, false},
		{"127.0.0.0", 24, false},
		{"169.254.252.0", 24, false},
		{"10.0.0.0", 8, false},
		{"192.168.1.0", 24, false},
		{"0.0.0.0", 0, false},
		{"192.0.2.0", 24, true},
		{"203.0.113.0", 24, true},
		{"2001:db8::", 48, true},
		{"fe80::", 64, false},
	}
	for _, c := range cases {
		cs := MustNew(netip.MustParseAddr(c.addr), c.bits)
		if got := cs.IsRoutable(); got != c.want {
			t.Errorf("IsRoutable(%s/%d) = %v, want %v", c.addr, c.bits, got, c.want)
		}
	}
	if Zero().IsRoutable() {
		t.Error("zero option must not be routable")
	}
}

func TestAttachStripFromMessage(t *testing.T) {
	m := dnswire.NewQuery(1, "example.com.", dnswire.TypeA)
	if _, present, _ := FromMessage(m); present {
		t.Fatal("phantom ECS option")
	}
	cs := MustNew(netip.MustParseAddr("198.51.100.77"), 24)
	Attach(m, cs)
	got, present, err := FromMessage(m)
	if err != nil || !present {
		t.Fatalf("FromMessage after Attach: %v %v", present, err)
	}
	if got != cs {
		t.Fatalf("got %+v, want %+v", got, cs)
	}
	// Attach must survive a wire round trip.
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	back, err := dnswire.Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	got2, present, err := FromMessage(back)
	if err != nil || !present || got2 != cs {
		t.Fatalf("wire round trip: %+v %v %v", got2, present, err)
	}
	if !Strip(back) {
		t.Fatal("Strip found nothing")
	}
	if _, present, _ := FromMessage(back); present {
		t.Fatal("option survived Strip")
	}
	if Strip(m) != true {
		t.Fatal("strip on original")
	}
	if Strip(m) {
		t.Fatal("second Strip should find nothing")
	}
}

func TestMaskAddr(t *testing.T) {
	cases := []struct {
		in   string
		bits int
		want string
	}{
		{"192.0.2.213", 24, "192.0.2.0"},
		{"192.0.2.213", 25, "192.0.2.128"},
		{"192.0.2.213", 32, "192.0.2.213"},
		{"192.0.2.213", 0, "0.0.0.0"},
		{"2001:db8:f00d::1", 48, "2001:db8:f00d::"},
		{"::ffff:192.0.2.213", 24, "192.0.2.0"},
	}
	for _, c := range cases {
		got := MaskAddr(netip.MustParseAddr(c.in), c.bits)
		if got != netip.MustParseAddr(c.want) {
			t.Errorf("MaskAddr(%s, %d) = %s, want %s", c.in, c.bits, got, c.want)
		}
	}
}

// Property: for any IPv4 address and prefix length, encode→decode is the
// identity and the decoded option covers the original address at the
// source prefix.
func TestQuickEncodeDecodeIPv4(t *testing.T) {
	f := func(a, b, c, d byte, bits uint8) bool {
		src := int(bits) % 33
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		cs := MustNew(addr, src)
		got, err := Decode(cs.Encode())
		if err != nil || got != cs {
			return false
		}
		return got.Covers(addr, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: masking is idempotent and monotone (masking to fewer bits of a
// masked address equals masking the original to fewer bits).
func TestQuickMaskProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var raw [4]byte
		rng.Read(raw[:])
		addr := netip.AddrFrom4(raw)
		b1 := rng.Intn(33)
		b2 := rng.Intn(b1 + 1)
		m1 := MaskAddr(addr, b1)
		if MaskAddr(m1, b1) != m1 {
			t.Fatalf("mask not idempotent at /%d for %s", b1, addr)
		}
		if MaskAddr(m1, b2) != MaskAddr(addr, b2) {
			t.Fatalf("mask not monotone: %s /%d /%d", addr, b1, b2)
		}
	}
}

func TestFamilyStringAndWidth(t *testing.T) {
	if FamilyIPv4.String() != "IPv4" || FamilyIPv6.String() != "IPv6" || FamilyNone.String() != "none" {
		t.Error("Family.String misbehaves")
	}
	if Family(9).MaxPrefix() != 0 {
		t.Error("unknown family width must be 0")
	}
}

func TestClientSubnetString(t *testing.T) {
	cs := MustNew(netip.MustParseAddr("192.0.2.0"), 24).WithScope(16)
	if cs.String() != "192.0.2.0/24/16" {
		t.Fatalf("String = %q", cs.String())
	}
	if Zero().String() != "none/0/0" {
		t.Fatalf("zero String = %q", Zero().String())
	}
}
