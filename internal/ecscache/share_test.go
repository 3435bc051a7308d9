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

// fillCost is what filling a cache cost per entry: live is by how much
// the live heap grew, alloc how many bytes the inserts allocated, the
// copies of records no neighbour held included, whether the cache keeps
// them or not.
type fillCost struct{ live, alloc float64 }

// heapPerEntry inserts the n entries entry makes into a new cache built
// from cfg and returns what that cost per entry.
func heapPerEntry(cfg Config, n int, entry func(i int) (Key, Entry)) fillCost {
	c := New(cfg)
	before := liveHeap()
	alloc := insertAll(c, n, entry)
	after := liveHeap()
	runtime.KeepAlive(c)
	return fillCost{live: float64(int64(after)-int64(before)) / float64(n), alloc: float64(alloc) / float64(n)}
}

// insertAll makes the n entries entry makes, as a decoder hands them
// over, inserts them into c and returns the bytes the inserts allocated.
// What the entries hold is garbage once it returns, as a reused decode
// buffer's previous answer is, unless the cache kept it.
func insertAll(c *Cache, n int, entry func(i int) (Key, Entry)) uint64 {
	keys, entries := make([]Key, n), make([]Entry, n)
	for i := range entries {
		keys[i], entries[i] = entry(i)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for i := range entries {
		c.Insert(keys[i], entries[i], benchNow)
	}
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - start
}

// bytesPerEntry fills a new cache with one name at fanout subnets and
// returns what that cost per entry.
func bytesPerEntry(fanout int, distinct bool) fillCost {
	key := benchKeys(1)[0]
	return heapPerEntry(Config{Mode: HonorScope, ClampScopeToSource: true}, fanout, func(i int) (Key, Entry) {
		return decodedEntry(key, i, distinct)
	})
}

// freshBytesPerEntry fills a cache bounded at n with n fresh names, one
// entry each, and returns what that cost per entry, the live heap being
// the record, its own record set, and the question's map slot, list and
// name.
func freshBytesPerEntry(n int) fillCost {
	return heapPerEntry(Config{Mode: HonorScope, ClampScopeToSource: true, MaxEntries: n}, n, freshEntry)
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
		cost func() fillCost
		max  float64
	}{
		{"one name at 2048 subnets, equal answers", func() fillCost { return bytesPerEntry(2048, false) }, 105},
		{"one name at 2048 subnets, distinct answers", func() fillCost { return bytesPerEntry(2048, true) }, 240},
		{"4096 fresh names bounded at 4096", func() fillCost { return freshBytesPerEntry(4096) }, 390},
	} {
		got := row.cost()
		t.Logf("%s: %.1f B per entry (%.1f B allocated per insert)", row.fill, got.live, got.alloc)
		if got.live > row.max {
			t.Errorf("%s costs %.0f B per entry, want <= %.0f", row.fill, got.live, row.max)
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

// TestAllocGateInsertShared: Insert copies what it keeps and keeps none
// of the caller's memory. One answer is inserted for subnet after subnet
// from a single record slice and payload, rewritten in place between
// calls as a decoder reusing its Message rewrites them. A rewrite after
// Insert returns changes no lookup and no section Insert returned, and an
// insert whose records the neighbour before it holds allocates 1 object,
// its resident record: the records are compared, not copied.
func TestAllocGateInsertShared(t *testing.T) {
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	key := benchKeys(1)[0]
	addr := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	data := &dnswire.ARData{Addr: addr}
	answer := []dnswire.RR{{Name: key.Name, Class: dnswire.ClassINET, TTL: 300, Data: data}}
	entry := func(i int) Entry {
		cs, _ := benchSubnet(i)
		return Entry{HasECS: true, Subnet: cs, Expiry: benchNow.Add(time.Hour), Answer: answer}
	}
	decodeOther := func() {
		answer[0].TTL, data.Addr = 60, netip.AddrFrom4([4]byte{198, 51, 100, 7})
	}
	decodeSame := func() {
		answer[0].TTL, data.Addr = 300, addr
	}
	check := func(what string, rrs []dnswire.RR) {
		t.Helper()
		if len(rrs) != 1 || rrs[0].TTL != 300 || rrs[0].Data.(*dnswire.ARData).Addr != addr {
			t.Fatalf("%s reads %v after the caller's records were rewritten, want %s at TTL 300", what, rrs, addr)
		}
	}

	first, _, ok := c.Insert(key, entry(0), benchNow)
	if !ok {
		t.Fatal("insert rejected")
	}
	decodeOther()
	check("the returned answer", first)
	_, client := benchSubnet(0)
	if e, ok := c.Lookup(key, client, benchNow); !ok {
		t.Fatal("subnet 0 missed")
	} else {
		check("subnet 0's entry", e.Answer)
	}

	decodeSame()
	next := 1
	insert := func() {
		if got, _, _ := c.Insert(key, entry(next), benchNow); &got[0] != &first[0] {
			t.Fatalf("subnet %d's insert stored its own records, want subnet 0's", next)
		}
		next++
	}
	if raceEnabled {
		insert()
	} else {
		allocs := testing.AllocsPerRun(1000, insert)
		t.Logf("an insert of records the neighbour before it holds allocates %.2f objects", allocs)
		if allocs > 1 {
			t.Errorf("an insert of records the neighbour before it holds allocates %.2f objects, want 1", allocs)
		}
	}
	decodeOther()
	for i := 0; i < next; i++ {
		_, client := benchSubnet(i)
		e, ok := c.Lookup(key, client, benchNow)
		if !ok {
			t.Fatalf("subnet %d missed", i)
		}
		check(fmt.Sprintf("subnet %d's entry", i), e.Answer)
	}
	if got := c.Stats().Shared; got != int64(next-1) {
		t.Errorf("Shared = %d, want %d", got, next-1)
	}
}
