package ecscache

import (
	"cmp"
	"encoding/binary"
	"math"
	"net/netip"
	"slices"
	"sync"
	"time"

	"ecsdns/internal/dnswire"
)

// shard is one independently locked partition of the key space. It
// holds the one per-question structure the cache has — each question's
// entries in a slice kept sorted by slot and binary-searched — plus the
// intrusive recency list that backs LRU eviction when the shard is
// capacity-bounded.
type shard struct {
	owner *Cache

	mu      sync.RWMutex
	entries map[Key]question
	// size counts resident entries (live plus expired-but-uncollected),
	// mirroring the accounting the owner's live counter aggregates.
	size int
	// capacity bounds size; 0 means unbounded and the lru list is not
	// maintained at all.
	capacity int
	lru      lruList
	// examined counts the entries collection passes have read: the
	// tests' proof that an insert with nothing due reads none.
	examined int
}

// question is one question's residents and when they next need
// collecting.
type question struct {
	// list holds the residents ordered by slot: IPv4 before IPv6, within
	// a family longest effective scope first, within a scope by prefix,
	// and the shared entry last. A lookup costs one binary search per
	// distinct scope length present at a pointer per entry of memory.
	list []*Entry
	// due is a lower bound on the earliest Expiry in list, in Unix
	// nanoseconds (see unixNano). Before due nothing in list can have
	// expired, so a collection pass would remove nothing and is skipped.
	// Inserts lower it, collection passes recompute it; replacement and
	// eviction leave it, at worst early, which costs one idle pass. It is
	// on the wall clock while Expiry.After compares monotonic readings
	// when both times carry one, so after a backward wall-clock step a
	// pass can come late by the step; lookups are unaffected.
	due int64
}

func newShard(owner *Cache, capacity int) *shard {
	sh := &shard{
		owner:    owner,
		entries:  make(map[Key]question),
		capacity: capacity,
	}
	sh.lru.init()
	return sh
}

// unixNanoMin and unixNanoMax bound the instants UnixNano can express.
var unixNanoMin, unixNanoMax = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// unixNano is t.UnixNano saturated at the int64 range. UnixNano is
// undefined outside it: a zero Expiry would read as some instant in
// 1754, and one in 1500 as 2084, making a dead entry look live to due.
func unixNano(t time.Time) int64 {
	switch {
	case t.Before(unixNanoMin):
		return math.MinInt64
	case t.After(unixNanoMax):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// bounded reports whether this shard enforces a capacity (and therefore
// maintains recency order).
func (sh *shard) bounded() bool { return sh.capacity > 0 }

// slot is an entry's sort position within its question's list, and its
// identity there: an insert whose slot is already occupied replaces the
// occupant.
type slot struct {
	fam, bits uint8
	// hi and lo are the subnet's leading `bits` bits, left-aligned (an
	// IPv4 address fills the top half of hi).
	hi, lo uint64
}

// Slot families, in list order. Every slot of an address family covers
// only clients of that family; the one shared slot covers everyone. It
// holds the non-ECS answer, and under IgnoreScope every answer.
const (
	famV4 uint8 = iota
	famV6
	famShared
)

func famOf(addr netip.Addr) uint8 {
	if addr.Is4() {
		return famV4
	}
	return famV6
}

// slotAt returns the slot that covers addr at the given scope length.
func slotAt(addr netip.Addr, bits uint8) slot {
	s := slot{fam: famOf(addr), bits: bits}
	if s.fam == famV4 {
		b := addr.As4()
		s.hi = uint64(binary.BigEndian.Uint32(b[:])) << 32
	} else {
		b := addr.As16()
		s.hi, s.lo = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	}
	// Zero everything past the scope (a shift by 64 or more yields 0).
	if bits <= 64 {
		s.hi, s.lo = s.hi&^(^uint64(0)>>bits), 0
	} else {
		s.lo &^= ^uint64(0) >> (bits - 64)
	}
	return s
}

// slot rebuilds e's slot from the family and effective scope Insert
// cached in it.
func (e *Entry) slot() slot {
	if e.slotFam == famShared {
		return slot{fam: famShared}
	}
	return slotAt(e.Subnet.Addr, e.slotBits)
}

// compareSlot orders e's slot against s in list order.
func (e *Entry) compareSlot(s slot) int {
	a := e.slot()
	return cmp.Or(
		cmp.Compare(a.fam, s.fam),
		cmp.Compare(s.bits, a.bits), // longest scope first
		cmp.Compare(a.hi, s.hi),
		cmp.Compare(a.lo, s.lo))
}

// search returns where in list slot s is, or would be spliced in, and
// whether an entry occupies it.
func search(list []*Entry, s slot) (int, bool) {
	return slices.BinarySearchFunc(list, s, (*Entry).compareSlot)
}

// covering calls visit with the entries of list whose slots cover
// client, most specific first — at most one per distinct scope length
// present in client's family, then the shared entry — until visit
// returns false. Expiry is the visitor's business.
func covering(list []*Entry, client netip.Addr, visit func(*Entry) bool) {
	client = client.Unmap()
	fam := famOf(client)
	i := 0
	if fam != famV4 {
		i, _ = search(list, slot{fam: fam, bits: 255}) // sorts before every real scope
	}
	for i < len(list) && list[i].slotFam == fam {
		at := slotAt(client, list[i].slotBits)
		n, found := search(list[i:], at)
		if i += n; found && !visit(list[i]) {
			return
		}
		if at.bits == 0 {
			break // scope 0 is the family's last group
		}
		n, _ = search(list[i:], slot{fam: fam, bits: at.bits - 1}) // first shorter scope
		i += n
	}
	if n := len(list); n > 0 && list[n-1].slotFam == famShared {
		visit(list[n-1])
	}
}

// lookup finds a live entry usable by client, returning nil on a miss.
// Bounded shards take the write lock so a hit can be spliced to the
// front of the recency list; unbounded shards serve lookups under the
// read lock and scale with readers.
func (sh *shard) lookup(key Key, client netip.Addr, now time.Time) *Entry {
	if sh.bounded() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	} else {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	var hit *Entry
	covering(sh.entries[key].list, client, func(e *Entry) bool {
		if e.Expiry.After(now) {
			hit = e
		}
		return hit == nil
	})
	if hit != nil && sh.bounded() {
		sh.lru.moveFront(hit)
	}
	return hit
}

// lookupStale finds the freshest expired-but-recent positive entry
// usable by client (see Cache.LookupStale). Read lock only: stale
// serving is a degraded miss and does not touch recency.
func (sh *shard) lookupStale(key Key, client netip.Addr, now time.Time, maxStale time.Duration) *Entry {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var best *Entry
	covering(sh.entries[key].list, client, func(e *Entry) bool {
		stale := !e.Expiry.After(now) && e.Expiry.Add(maxStale).After(now)
		// Only stale-but-valid positive answers are servable.
		positive := e.RCode == dnswire.RCodeNoError && len(e.Answer) > 0
		if stale && positive && (best == nil || e.Expiry.After(best.Expiry)) {
			best = e
		}
		return true
	})
	return best
}

// collect removes q's entries dead at now, in place and keeping the
// order, and recomputes q.due from the survivors. It reads the list only
// once now has reached q.due, and reports whether it did.
func (sh *shard) collect(q *question, now time.Time) bool {
	if unixNano(now) < q.due {
		return false
	}
	sh.examined += len(q.list)
	q.due = math.MaxInt64
	q.list = slices.DeleteFunc(q.list, func(e *Entry) bool {
		if e.Expiry.After(now) {
			q.due = min(q.due, unixNano(e.Expiry))
			return false
		}
		sh.drop(e, expiredRemoval)
		return true
	})
	return true
}

// store puts a question back, dropping it with its last entry.
func (sh *shard) store(key Key, q question) {
	if len(q.list) == 0 {
		delete(sh.entries, key)
	} else {
		sh.entries[key] = q
	}
}

// insert stores one entry, collecting the key's expired entries in
// passing when any can have expired, sharing a list neighbour's records
// when they are the same, and evicting over-capacity residents from the
// LRU tail.
func (sh *shard) insert(key Key, stored *Entry, now time.Time) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.entries[key]
	sh.collect(&q, now)
	if len(q.list) > 0 {
		stored.lruKey = q.list[0].lruKey // one name string per question
	}
	i, occupied := search(q.list, stored.slot())
	sh.share(q.list, i, stored)
	if occupied {
		sh.drop(q.list[i], replacedRemoval)
		q.list[i] = stored
	} else {
		q.list = slices.Insert(q.list, i, stored)
	}
	q.due = min(q.due, unixNano(stored.Expiry))
	sh.entries[key] = q
	sh.add()
	if sh.bounded() {
		sh.lru.pushFront(stored)
		sh.evictOver(now)
	}
}

// removalKind classifies why an entry leaves the shard, driving the
// expiry/eviction counter split.
type removalKind int

const (
	expiredRemoval  removalKind = iota // dead when collected
	replacedRemoval                    // displaced by a same-slot insert
	evictedRemoval                     // capacity pressure (premature if live)
)

// add accounts one resident entry arriving.
func (sh *shard) add() {
	sh.size++
	sh.owner.addLive(1)
}

// drop accounts one resident entry leaving (storage removal itself is
// the caller's business, except for the recency list, handled here).
func (sh *shard) drop(e *Entry, kind removalKind) {
	sh.size--
	sh.owner.addLive(-1)
	if sh.bounded() {
		sh.lru.remove(e)
	}
	switch kind {
	case expiredRemoval:
		sh.owner.stats.expiries.Add(1)
	case evictedRemoval:
		sh.owner.stats.evictions.Add(1)
	}
}

// evictOver removes LRU-tail entries until the shard is back under
// capacity. Victims that already expired count as expiries, live
// victims as premature evictions — the distinction §7's operator-cost
// argument (and cachesim.BoundedReplay) turns on.
func (sh *shard) evictOver(now time.Time) {
	for sh.size > sh.capacity {
		victim := sh.lru.tail()
		if victim == nil {
			return
		}
		sh.removeFromStorage(victim)
		if victim.Expiry.After(now) {
			sh.drop(victim, evictedRemoval)
		} else {
			sh.drop(victim, expiredRemoval)
		}
	}
}

// removeFromStorage detaches a resident entry from its question's list
// (the recency list is handled by drop).
func (sh *shard) removeFromStorage(victim *Entry) {
	q := sh.entries[victim.lruKey]
	i, _ := search(q.list, victim.slot())
	q.list = slices.Delete(q.list, i, i+1)
	sh.store(victim.lruKey, q)
}

// len counts live entries at now. A question that is not due is live
// throughout and is counted without reading its list.
func (sh *shard) len(now time.Time) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	at, n := unixNano(now), 0
	for _, q := range sh.entries {
		if at < q.due {
			n += len(q.list)
			continue
		}
		for _, e := range q.list {
			if e.Expiry.After(now) {
				n++
			}
		}
	}
	return n
}

// purgeExpired drops entries dead at now and returns how many were
// removed. Questions that are not due are skipped whole.
func (sh *shard) purgeExpired(now time.Time) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	before := sh.size
	for key, q := range sh.entries {
		if sh.collect(&q, now) {
			sh.store(key, q)
		}
	}
	return before - sh.size
}

// flush empties the shard.
func (sh *shard) flush() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.owner.addLive(-sh.size)
	sh.size = 0
	sh.entries = make(map[Key]question)
	sh.lru.init()
}

// lruList is the intrusive recency list threaded through Entry's
// lruPrev/lruNext fields: head.lruNext is the most recently used
// resident, head.lruPrev the eviction candidate. All operations are
// O(1) pointer splices under the shard lock.
type lruList struct {
	head Entry // sentinel
}

func (l *lruList) init() {
	l.head.lruPrev, l.head.lruNext = &l.head, &l.head
}

func (l *lruList) pushFront(e *Entry) {
	e.lruPrev = &l.head
	e.lruNext = l.head.lruNext
	e.lruNext.lruPrev = e
	l.head.lruNext = e
}

func (l *lruList) remove(e *Entry) {
	if e.lruNext == nil {
		return // never linked (or already removed)
	}
	e.lruPrev.lruNext = e.lruNext
	e.lruNext.lruPrev = e.lruPrev
	e.lruPrev, e.lruNext = nil, nil
}

func (l *lruList) moveFront(e *Entry) {
	if e.lruNext == nil || l.head.lruNext == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// tail returns the least-recently-used entry, or nil when empty.
func (l *lruList) tail() *Entry {
	if l.head.lruPrev == &l.head {
		return nil
	}
	return l.head.lruPrev
}
