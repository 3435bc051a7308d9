package ecsopt

import (
	"net/netip"
	"testing"

	"ecsdns/internal/dnswire"
)

// TestAllocGateDecode holds option decoding to zero allocations: the
// recursor and authdns decode one option per ECS query they answer, and
// the recursor one more per upstream answer it reads.
func TestAllocGateDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, cs := range []ClientSubnet{
		MustNew(netip.MustParseAddr("198.51.100.0"), 24),
		MustNew(netip.MustParseAddr("2001:db8:42::"), 56).WithScope(48),
	} {
		opt := cs.Encode()
		m := &dnswire.Message{}
		Attach(m, cs)
		for _, row := range []struct {
			name   string
			decode func() (ClientSubnet, error)
		}{
			{"Decode", func() (ClientSubnet, error) { return Decode(opt) }},
			{"DecodeLenient", func() (ClientSubnet, error) { return DecodeLenient(opt) }},
			{"FromMessage", func() (ClientSubnet, error) { got, _, err := FromMessage(m); return got, err }},
		} {
			if got, err := row.decode(); err != nil || got != cs {
				t.Fatalf("%s(%v) = %v, %v", row.name, cs, got, err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := row.decode(); err != nil {
					t.Errorf("%s: %v", row.name, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s of %v allocates %.0f objects, want 0", row.name, cs, allocs)
			}
		}
	}
}
