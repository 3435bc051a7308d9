package ecscache

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ecsdns/internal/dnswire"
)

// decodedEntry is what a resolver inserts for subnet i of key's name: a
// freshly allocated question name, owner name and A record, as a decode
// hands them over. With distinct set every subnet is given its own
// address; otherwise all are given the same one.
func decodedEntry(key Key, i int, distinct bool) (Key, Entry) {
	key.Name = dnswire.Name(strings.Clone(string(key.Name)))
	a := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	if distinct {
		a = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	cs, _ := benchSubnet(i)
	return key, Entry{HasECS: true, Subnet: cs, Expiry: benchNow.Add(time.Hour),
		Answer: []dnswire.RR{{Name: dnswire.Name(strings.Clone(string(key.Name))),
			Class: dnswire.ClassINET, TTL: 300, Data: &dnswire.ARData{Addr: a}}}}
}

// insertDecoded inserts decodedEntry's entry for subnet i.
func insertDecoded(c *Cache, key Key, i int, distinct bool) {
	k, e := decodedEntry(key, i, distinct)
	c.Insert(k, e, benchNow)
}

// liveHeap is the heap still in use after full collections: two, since
// what sync.Pools dropped at the first is only freed at the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// freshEntry is what a resolver inserts for the i-th name of a stream of
// fresh names, as serve-miss sends them: a freshly decoded question name,
// which the answer's owner shares as the resolver files it, a /24 of 16
// at scope 24, and an A record of its own.
func freshEntry(i int) (Key, Entry) {
	key := Key{Name: dnswire.Name(fmt.Sprintf("f%d.bench.example.", i)), Type: dnswire.TypeA, Class: dnswire.ClassINET}
	cs, _ := benchSubnet(i % 16)
	return key, Entry{HasECS: true, Subnet: cs, Expiry: benchNow.Add(time.Hour),
		Answer: []dnswire.RR{{Name: key.Name, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}}}}
}

// heapPerEntry inserts n entries into a new cache built from cfg and
// returns by how much the live heap grew per entry.
func heapPerEntry(cfg Config, n int, insert func(c *Cache, i int)) float64 {
	c := New(cfg)
	before := liveHeap()
	for i := 0; i < n; i++ {
		insert(c, i)
	}
	after := liveHeap()
	runtime.KeepAlive(c)
	return float64(int64(after)-int64(before)) / float64(n)
}

// bytesPerEntry fills a new cache with one name at fanout subnets and
// returns by how much the live heap grew per entry.
func bytesPerEntry(fanout int, distinct bool) float64 {
	key := benchKeys(1)[0]
	return heapPerEntry(Config{Mode: HonorScope, ClampScopeToSource: true}, fanout, func(c *Cache, i int) {
		insertDecoded(c, key, i, distinct)
	})
}

// freshBytesPerEntry fills a cache bounded at n with n fresh names, one
// entry each, and returns the live heap that cost per entry: the record,
// its own record set, and the question's map slot, list and name.
func freshBytesPerEntry(n int) float64 {
	return heapPerEntry(Config{Mode: HonorScope, ClampScopeToSource: true, MaxEntries: n}, n, func(c *Cache, i int) {
		k, e := freshEntry(i)
		c.Insert(k, e, benchNow)
	})
}

// TestCacheBytesPerEntry holds the memory a (name, subnet) entry costs,
// the paper's §7 blow-up in bytes. Equal answers share one record set
// and one name, so an entry is its resident record and its list slot.
// Distinct answers add a record set each; fresh names, serve-miss's
// shape, add a question each.
func TestCacheBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(record{}); got > 80 {
			t.Errorf("the resident record is %d bytes, want <= 80 (Go's 80-byte size class)", got)
		}
	}
	for _, row := range []struct {
		fill string
		cost func() float64
		max  float64
	}{
		{"one name at 2048 subnets, equal answers", func() float64 { return bytesPerEntry(2048, false) }, 105},
		{"one name at 2048 subnets, distinct answers", func() float64 { return bytesPerEntry(2048, true) }, 240},
		{"4096 fresh names bounded at 4096", func() float64 { return freshBytesPerEntry(4096) }, 390},
	} {
		got := row.cost()
		t.Logf("%s: %.1f B per entry", row.fill, got)
		if got > row.max {
			t.Errorf("%s costs %.0f B per entry, want <= %.0f", row.fill, got, row.max)
		}
	}
}

// TestSharedCounter: Shared counts the inserts that took a neighbour's
// records, and only those, and reaches the exit line.
func TestSharedCounter(t *testing.T) {
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	key := benchKeys(1)[0]
	for i := 0; i < 3; i++ {
		insertDecoded(c, key, i, false)
	}
	if got := c.Stats().Shared; got != 2 {
		t.Fatalf("three equal answers: Shared = %d, want 2", got)
	}
	insertDecoded(c, key, 3, true) // its neighbour answers differently
	insertDecoded(c, key, 1, false)
	if got := c.Stats().Shared; got != 3 {
		t.Fatalf("after a distinct answer and an equal replacement: Shared = %d, want 3", got)
	}

	// Entries without records, all of cachesim's, have nothing to share.
	empty := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	for i := 0; i < 64; i++ {
		cs, _ := benchSubnet(i)
		empty.Insert(key, Entry{HasECS: true, Subnet: cs, Expiry: benchNow.Add(time.Hour)}, benchNow)
	}
	empty.Insert(key, Entry{Expiry: benchNow.Add(time.Hour)}, benchNow)
	if st := empty.Stats(); st.Shared != 0 || st.Live != 65 {
		t.Fatalf("record-less inserts: Shared = %d, Live = %d, want 0 and 65", st.Shared, st.Live)
	}

	st := c.Stats()
	line := st.String()
	if !strings.Contains(line, fmt.Sprintf(" shared=%d ", st.Shared)) {
		t.Errorf("exit line %q does not carry shared=%d", line, st.Shared)
	}
	// The benchmark finds authdns's counters by the last "shed=" and
	// "received=" on stderr; the recursor's cache line must not offer one.
	for _, k := range []string{"shed=", "received="} {
		if strings.Contains(line, k) {
			t.Errorf("exit line %q contains %q", line, k)
		}
	}
	if !st.Balanced() {
		t.Errorf("lookup partition broken: %+v", st)
	}
}

// TestSharedRecordsOutliveTheirHolder: readers hit every sharer while
// entries holding the records they share are replaced, expired and
// evicted, and every record they get must be the one they were given.
// Run under -race, it also shows that no removal writes a shared record.
func TestSharedRecordsOutliveTheirHolder(t *testing.T) {
	const sharers = 32
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true, Shards: 1, MaxEntries: sharers + 1})
	key := benchKeys(1)[0]
	want := func() []dnswire.RR { _, e := decodedEntry(key, 0, false); return e.Answer }()
	for i := 0; i <= sharers; i++ {
		insertDecoded(c, key, i, false) // subnet 0 holds the records first
	}
	if got := c.Stats().Shared; got != sharers {
		t.Fatalf("Shared = %d after filling, want %d", got, sharers)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var hits [4]int
	for r := range hits {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i := 1; i <= sharers; i++ {
					_, client := benchSubnet(i)
					if e, ok := c.Lookup(key, client, benchNow); ok {
						hits[r]++
						if !sameRRs(e.Answer, want) {
							t.Errorf("subnet %d served %v, want %v", i, e.Answer, want)
							return
						}
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 600; i++ {
		k, e := decodedEntry(key, 0, false)
		switch i % 3 {
		case 0: // subnet 0, sharing or not, is replaced by different records
			e.Answer[0].Data = &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})}
		case 1: // it takes the shared records dead on arrival and is collected next
			e.Expiry = benchNow.Add(-time.Second)
		case 2: // a subnet beyond capacity takes them and pushes the LRU tail out
			k, e = decodedEntry(key, sharers+1, false)
		}
		c.Insert(k, e, benchNow)
		insertDecoded(c, key, 1+i%sharers, false) // a sharer replaced, or back after an eviction
	}
	close(done)
	wg.Wait()
	st := c.Stats()
	if st.Expiries == 0 || st.Evictions == 0 {
		t.Errorf("the writer expired %d and evicted %d entries; the test exercised nothing", st.Expiries, st.Evictions)
	}
	for r, n := range hits {
		if n == 0 {
			t.Errorf("reader %d hit nothing", r)
		}
	}
}
