package ecscache

import (
	"fmt"
	"testing"
	"time"
)

// gateStep is one insert under keyA and the accounting expected right
// after it.
type gateStep struct {
	at     time.Duration // insert time, after t0
	subnet int           // the entry is filed under 203.0.subnet.0/24
	expiry time.Time     // before clampTTL
	want   gateCounts
}

type gateCounts struct {
	expiries, evictions, live, len int
}

// TestCollectionGateNeverSkipsADueCollection drives one question through
// the cases where a wrong due bound would let an insert skip a pass that
// had something to collect: lifetimes far apart, dead-on-arrival
// expiries (one before 1678, where UnixNano wraps into the future), the
// earliest entry replaced or evicted while a later one is still due, and
// expiries set by the TTL clamps rather than by the answer.
func TestCollectionGateNeverSkipsADueCollection(t *testing.T) {
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	hour := at(time.Hour)
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps []gateStep
	}{
		{"lifetimes from 1s to 1h", Config{}, []gateStep{
			{0, 1, hour, gateCounts{0, 0, 1, 1}},
			{0, 2, at(time.Second), gateCounts{0, 0, 2, 2}},
			{0, 3, at(time.Minute), gateCounts{0, 0, 3, 3}},
			{0, 4, at(10 * time.Second), gateCounts{0, 0, 4, 4}},
			{2 * time.Second, 5, hour, gateCounts{1, 0, 4, 4}},
			{11 * time.Second, 6, hour, gateCounts{2, 0, 4, 4}},
			{30 * time.Second, 7, hour, gateCounts{2, 0, 5, 5}},
			{61 * time.Second, 8, hour, gateCounts{3, 0, 5, 5}},
		}},
		{"dead on arrival", Config{}, []gateStep{
			{0, 1, time.Time{}, gateCounts{0, 0, 1, 0}},
			{time.Millisecond, 2, hour, gateCounts{1, 0, 1, 1}},
			{time.Millisecond, 3, time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), gateCounts{1, 0, 2, 1}},
			{2 * time.Millisecond, 4, hour, gateCounts{2, 0, 2, 2}},
		}},
		{"earliest replaced", Config{}, []gateStep{
			{0, 1, at(time.Second), gateCounts{0, 0, 1, 1}},
			{0, 2, at(5 * time.Second), gateCounts{0, 0, 2, 2}},
			{0, 3, hour, gateCounts{0, 0, 3, 3}},
			{0, 1, hour, gateCounts{0, 0, 3, 3}},
			{2 * time.Second, 4, hour, gateCounts{0, 0, 4, 4}},
			{6 * time.Second, 5, hour, gateCounts{1, 0, 4, 4}},
		}},
		{"earliest evicted", Config{MaxEntries: 3}, []gateStep{
			{0, 1, at(time.Second), gateCounts{0, 0, 1, 1}},
			{0, 2, at(5 * time.Second), gateCounts{0, 0, 2, 2}},
			{0, 3, hour, gateCounts{0, 0, 3, 3}},
			{0, 4, hour, gateCounts{0, 1, 3, 3}},
			{6 * time.Second, 5, hour, gateCounts{1, 1, 3, 3}},
		}},
		{"MaxTTL sets the expiry", Config{MaxTTL: time.Minute}, []gateStep{
			{0, 1, hour, gateCounts{0, 0, 1, 1}},
			{30 * time.Second, 2, hour, gateCounts{0, 0, 2, 2}},
			{61 * time.Second, 3, hour, gateCounts{1, 0, 2, 2}},
			{91 * time.Second, 4, hour, gateCounts{2, 0, 2, 2}},
		}},
		{"MinTTL sets the expiry", Config{MinTTL: 10 * time.Second}, []gateStep{
			{0, 1, at(time.Second), gateCounts{0, 0, 1, 1}},
			{5 * time.Second, 2, at(6 * time.Second), gateCounts{0, 0, 2, 2}},
			{11 * time.Second, 3, hour, gateCounts{1, 0, 2, 2}},
			{16 * time.Second, 4, hour, gateCounts{2, 0, 2, 2}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			for i, s := range tc.steps {
				e := ecsEntry(fmt.Sprintf("203.0.%d.0", s.subnet), 24, 24, time.Minute)
				e.Expiry = s.expiry
				now := at(s.at)
				c.Insert(keyA, e, now)
				st := c.Stats()
				got := gateCounts{int(st.Expiries), int(st.Evictions), int(st.Live), c.Len(now)}
				if got != s.want {
					t.Fatalf("after insert %d (subnet %d at +%v): expiries, evictions, live, len = %v, want %v",
						i, s.subnet, s.at, got, s.want)
				}
			}
		})
	}
}

// TestInsertCollectsOnlyWhenDue is the gate on the insert path's cost: a
// question's collection pass reads its whole list, so running it on
// every insert makes filling a name quadratic. With nothing due, inserts
// into a 16 384-entry question read no entry; the first insert after an
// expiry reads the list once and collects exactly the dead entry.
func TestInsertCollectsOnlyWhenDue(t *testing.T) {
	const fanout = 16384
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	benchFill(c, []Key{keyA}, fanout) // every entry lives an hour
	insert := func(i int, life, after time.Duration) {
		cs, _ := benchSubnet(i)
		c.Insert(keyA, Entry{HasECS: true, Subnet: cs, Expiry: benchNow.Add(life)}, benchNow.Add(after))
	}
	insert(fanout/2, time.Minute, 0) // the one entry that will expire
	for i := 0; i < 1000; i++ {
		insert(i*13%fanout, time.Hour, time.Duration(i)*time.Millisecond)
	}
	sh := c.shardFor(keyA)
	if sh.examined != 0 {
		t.Fatalf("filling and replacing with nothing due read %d entries, want 0", sh.examined)
	}
	insert(fanout+1, time.Hour, 2*time.Minute)
	if st := c.Stats(); sh.examined != fanout || st.Expiries != 1 || st.Live != fanout {
		t.Fatalf("first insert after one expiry: read %d entries, expiries=%d live=%d; want %d, 1, %d",
			sh.examined, st.Expiries, st.Live, fanout, fanout)
	}
	insert(fanout+2, time.Hour, 3*time.Minute)
	if sh.examined != fanout {
		t.Fatalf("the pass did not move due past what it kept: the next insert read %d more entries", sh.examined-fanout)
	}
}
