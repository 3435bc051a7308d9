package ecscache

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// TestConcurrentCacheAccess hammers one cache with parallel readers,
// writers, purgers and len-takers. It asserts nothing beyond "no race,
// no panic, no torn entry" — run it under -race (verify.sh does) to
// make the mutex discipline load-bearing.
func TestConcurrentCacheAccess(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"linear", Config{Mode: HonorScope, ClampScopeToSource: true}},
		{"sharded", Config{Mode: HonorScope, ClampScopeToSource: true, Shards: 8}},
		{"sharded-bounded", Config{Mode: HonorScope, ClampScopeToSource: true, Shards: 4, MaxEntries: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := New(mode.cfg)
			start := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
			keys := make([]Key, 8)
			for i := range keys {
				keys[i] = Key{
					Name:  dnswire.MustParseName(fmt.Sprintf("k%d.stress.example.", i)),
					Type:  dnswire.TypeA,
					Class: dnswire.ClassINET,
				}
			}
			subnet := func(i int) ecsopt.ClientSubnet {
				a := netip.AddrFrom4([4]byte{10, byte(i), byte(i % 4), 0})
				return ecsopt.MustNew(a, 24).WithScope(24)
			}
			client := func(i int) netip.Addr {
				return netip.AddrFrom4([4]byte{10, byte(i), byte(i % 4), 9})
			}
			answer := []dnswire.RR{{
				Name:  "k.stress.example.",
				Class: dnswire.ClassINET, TTL: 20,
				Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
			}}

			const workers = 4
			const iters = 500
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() { // writer
					defer wg.Done()
					for i := 0; i < iters; i++ {
						k := keys[(w+i)%len(keys)]
						now := start.Add(time.Duration(i) * time.Millisecond)
						c.Insert(k, Entry{
							Subnet: subnet(i % 16), HasECS: true,
							Answer: answer, Expiry: now.Add(20 * time.Second),
						}, now)
					}
				}()
				wg.Add(1)
				go func() { // reader, fresh and stale paths
					defer wg.Done()
					for i := 0; i < iters; i++ {
						k := keys[(w+i)%len(keys)]
						now := start.Add(time.Duration(i) * time.Millisecond)
						if e, ok := c.Lookup(k, client(i%16), now); ok {
							// Entries live 20s; the reader's clock may trail
							// the writer's by up to the iteration spread, and
							// RemainingTTL rounds up, so 21 is the ceiling.
							if e.RemainingTTL(now) > 21 {
								t.Errorf("torn entry: TTL %d", e.RemainingTTL(now))
								return
							}
						}
						c.LookupStale(k, client(i%16), now.Add(30*time.Second), time.Hour)
					}
				}()
				wg.Add(1)
				go func() { // purger + len
					defer wg.Done()
					for i := 0; i < iters/10; i++ {
						now := start.Add(time.Duration(i*10) * time.Millisecond)
						c.PurgeExpired(now.Add(time.Duration(i) * time.Second))
						c.Len(now)
					}
				}()
			}
			wg.Wait()
			// At quiescence the counter partition must hold exactly.
			if err := c.Stats().Check(); err != nil {
				t.Errorf("after stress: %v", err)
			}
		})
	}
}

// TestConcurrentBoundedHits: a hit in a bounded shard splices the
// recency list, so lookups must exclude one another there, not only
// writers. TestConcurrentCacheAccess cannot show that: its bounded cache
// is too small for lookups to hit, and its writers order the readers
// they run between. Here nothing writes, so under -race two readers are
// enough to see a splice made under the read lock.
func TestConcurrentBoundedHits(t *testing.T) {
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true, Shards: 1, MaxEntries: 64})
	keys := benchKeys(8)
	benchFill(c, keys, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, client := benchSubnet((w + i) % 4)
				if _, ok := c.Lookup(keys[i%len(keys)], client, benchNow); !ok {
					t.Errorf("reader %d: lookup %d missed a resident entry", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
