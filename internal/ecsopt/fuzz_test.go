package ecsopt

import (
	"bytes"
	"net/netip"
	"testing"

	"ecsdns/internal/dnswire"
)

// FuzzDecode feeds arbitrary option payloads through both decoders and
// checks the invariants that hold for any input: no panic, strict ⊂
// lenient, masked addresses, and a stable encode/decode round trip.
func FuzzDecode(f *testing.F) {
	// Valid corpus: the shapes the paper's datasets contain.
	f.Add(MustNew(netip.MustParseAddr("1.2.3.0"), 24).Encode().Data)
	f.Add(MustNew(netip.MustParseAddr("1.2.3.4"), 32).Encode().Data)
	f.Add(MustNew(netip.MustParseAddr("2001:db8::"), 56).Encode().Data)
	f.Add(Zero().Encode().Data)
	f.Add(MustNew(netip.MustParseAddr("10.1.2.0"), 24).WithScope(24).Encode().Data)
	// Known-deviant shapes: trailing bits, short/long address fields,
	// unknown family, over-long prefixes.
	f.Add([]byte{0, 1, 24, 0, 1, 2, 3, 4})
	f.Add([]byte{0, 1, 24, 0, 1, 2})
	f.Add([]byte{0, 3, 24, 0, 1, 2, 3})
	f.Add([]byte{0, 1, 33, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 24})
	f.Add([]byte{0, 2, 129, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		opt := dnswire.Option{Code: dnswire.OptionCodeECS, Data: data}
		strictCS, strictErr := Decode(opt)
		lenientCS, lenientErr := DecodeLenient(opt)

		// Anything the strict decoder accepts the lenient one must too,
		// and they must agree on what it means.
		if strictErr == nil {
			if lenientErr != nil {
				t.Fatalf("strict accepted %x but lenient rejected it: %v", data, lenientErr)
			}
			if strictCS != lenientCS {
				t.Fatalf("decoders disagree on %x: strict=%v lenient=%v", data, strictCS, lenientCS)
			}
		}

		for _, cs := range []struct {
			name string
			cs   ClientSubnet
			err  error
		}{{"strict", strictCS, strictErr}, {"lenient", lenientCS, lenientErr}} {
			if cs.err != nil {
				continue
			}
			// The decoded address must already be masked to the source
			// prefix — cache keys and coverage tests depend on it.
			if cs.cs.Addr.IsValid() {
				if masked := MaskAddr(cs.cs.Addr, int(cs.cs.SourcePrefix)); masked != cs.cs.Addr {
					t.Fatalf("%s decode of %x left trailing bits: %v != %v", cs.name, data, cs.cs.Addr, masked)
				}
			}
			// Encode is canonical: re-decoding what we encode must be
			// error-free and idempotent, for either decoder.
			enc := cs.cs.Encode()
			re, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s round trip of %x: re-decode failed: %v", cs.name, data, err)
			}
			if re != cs.cs {
				t.Fatalf("%s round trip of %x: %v != %v", cs.name, data, re, cs.cs)
			}
			if enc2 := re.Encode(); !bytes.Equal(enc2.Data, enc.Data) {
				t.Fatalf("%s encode of %x not canonical: %x != %x", cs.name, data, enc2.Data, enc.Data)
			}
			// Derived views must not panic on any accepted input.
			_ = cs.cs.Prefix()
			_ = cs.cs.String()
			_ = cs.cs.IsZero()
			_ = cs.cs.IsRoutable()
			_ = cs.cs.Covers(netip.MustParseAddr("192.0.2.1"), int(cs.cs.SourcePrefix))
		}
	})
}
