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
	"ecsdns/internal/ecsopt"
)

// shard is one independently locked partition of the key space. It
// holds the one per-question structure the cache has — each question's
// records in a slice kept sorted by slot and binary-searched — plus the
// intrusive recency list that backs LRU eviction when the shard is
// capacity-bounded.
type shard struct {
	owner *Cache

	mu      sync.RWMutex
	entries map[Key]*question
	// size counts resident records (live plus expired-but-uncollected),
	// mirroring the accounting the owner's live counter aggregates.
	size int
	// capacity bounds size; 0 means unbounded and the lru list is not
	// maintained at all.
	capacity int
	lru      lruList
	// examined counts the records collection passes have read: the
	// tests' proof that an insert with nothing due reads none.
	examined int
}

// question is one question's residents and when they next need
// collecting. Its records point back at it, which is how an eviction
// finds the list its victim is in.
type question struct {
	key Key
	// list holds the residents ordered by slot: IPv4 before IPv6, within
	// a family longest effective scope first, within a scope by prefix,
	// and the shared record last. A lookup costs one binary search per
	// distinct scope length present at a pointer per record of memory.
	list []*record
	// due is a lower bound on the earliest expiry in list, in Unix
	// nanoseconds (see unixNano). Before due nothing in list can have
	// expired, so a collection pass would remove nothing and is skipped.
	// Inserts lower it, collection passes recompute it; replacement and
	// eviction leave it, at worst early, which costs one idle pass. It is
	// on the wall clock while Expiry.After compares monotonic readings
	// when both times carry one, so after a backward wall-clock step a
	// pass can come late by the step; lookups are unaffected.
	due int64
}

// record is what a shard keeps of an inserted Entry: 80 bytes on a
// 64-bit platform, Go's 80-byte size class. The subnet is its address
// bytes and an address kind rather than a netip.Addr, and the records a
// list neighbour holds alike are shared by pointer. Entry.Stored and an
// address zone, which no ECS option carries, are not kept.
type record struct {
	q *question
	// ip is the subnet address as As16 gives it: an IPv4 address in its
	// IPv4-mapped form, which flags' address kind tells from a 4-in-6 one.
	ip     [16]byte
	family ecsopt.Family
	source uint8
	scope  uint8
	rcode  dnswire.RCode
	// slotBits is the effective scope Insert filed the record at (see
	// slot); flags packs HasECS, the slot family and the address kind.
	slotBits uint8
	flags    uint8
	expiry   time.Time
	// recs is nil for an answer without records. Records are immutable:
	// the cache, every record that shares them and every response built
	// from them read them and nobody writes one.
	recs *records
	// Intrusive LRU links, owned by the storing shard and set only while
	// the record is resident in a capacity-bounded cache.
	lruPrev, lruNext *record
}

// records is one answer's sections, held by every record that shares
// them.
type records struct {
	answer, authority []dnswire.RR
}

// The bits of record.flags.
const (
	flagECS     = 1 << 0
	slotFamBit  = 1 // slot family in bits 1–2
	addrKindBit = 3 // address kind in bits 3–4
)

// Address kinds: an invalid address keeps no bytes, an IPv4 one its
// last four.
const (
	addrInvalid uint8 = iota
	addrV4
	addrV6
)

// newRecord packs e, filed in slot family fam at bits.
func newRecord(e *Entry, fam, bits uint8) *record {
	r := &record{
		ip:       e.Subnet.Addr.As16(),
		family:   e.Subnet.Family,
		source:   e.Subnet.SourcePrefix,
		scope:    e.Subnet.ScopePrefix,
		rcode:    e.RCode,
		slotBits: bits,
		flags:    fam << slotFamBit,
		expiry:   e.Expiry,
	}
	kind := addrV6
	switch {
	case !e.Subnet.Addr.IsValid():
		kind = addrInvalid
	case e.Subnet.Addr.Is4():
		kind = addrV4
	}
	r.flags |= kind << addrKindBit
	if e.HasECS {
		r.flags |= flagECS
	}
	return r
}

func (r *record) slotFam() uint8 { return r.flags >> slotFamBit & 3 }

// entry unpacks r into the Entry Insert was given, Stored aside.
func (r *record) entry() Entry {
	e := Entry{
		Subnet: ecsopt.ClientSubnet{Family: r.family, SourcePrefix: r.source, ScopePrefix: r.scope},
		HasECS: r.flags&flagECS != 0,
		RCode:  r.rcode,
		Expiry: r.expiry,
	}
	switch r.flags >> addrKindBit {
	case addrV4:
		e.Subnet.Addr = netip.AddrFrom4([4]byte(r.ip[12:]))
	case addrV6:
		e.Subnet.Addr = netip.AddrFrom16(r.ip)
	}
	if r.recs != nil {
		e.Answer, e.Authority = r.recs.answer, r.recs.authority
	}
	return e
}

func newShard(owner *Cache, capacity int) *shard {
	sh := &shard{
		owner:    owner,
		entries:  make(map[Key]*question),
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

// slot is a record's sort position within its question's list, and its
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
	ip := addr.As16()
	return slotOf(famOf(addr), &ip, bits)
}

// slotOf returns the slot of family fam that covers the address ip (in
// As16 form) at the given scope length.
func slotOf(fam uint8, ip *[16]byte, bits uint8) slot {
	s := slot{fam: fam, bits: bits}
	if fam == famV4 {
		s.hi = uint64(binary.BigEndian.Uint32(ip[12:])) << 32
	} else {
		s.hi, s.lo = binary.BigEndian.Uint64(ip[:8]), binary.BigEndian.Uint64(ip[8:])
	}
	// Zero everything past the scope (a shift by 64 or more yields 0).
	if bits <= 64 {
		s.hi, s.lo = s.hi&^(^uint64(0)>>bits), 0
	} else {
		s.lo &^= ^uint64(0) >> (bits - 64)
	}
	return s
}

// slot rebuilds r's slot from the family and effective scope Insert
// filed it at.
func (r *record) slot() slot {
	fam := r.slotFam()
	if fam == famShared {
		return slot{fam: famShared}
	}
	return slotOf(fam, &r.ip, r.slotBits)
}

// compareSlot orders r's slot against s in list order.
func (r *record) compareSlot(s slot) int {
	a := r.slot()
	return cmp.Or(
		cmp.Compare(a.fam, s.fam),
		cmp.Compare(s.bits, a.bits), // longest scope first
		cmp.Compare(a.hi, s.hi),
		cmp.Compare(a.lo, s.lo))
}

// search returns where in list slot s is, or would be spliced in, and
// whether a record occupies it.
func search(list []*record, s slot) (int, bool) {
	return slices.BinarySearchFunc(list, s, (*record).compareSlot)
}

// covering calls visit with the records of list whose slots cover
// client, most specific first — at most one per distinct scope length
// present in client's family, then the shared record — until visit
// returns false. Expiry is the visitor's business.
func covering(list []*record, client netip.Addr, visit func(*record) bool) {
	client = client.Unmap()
	fam := famOf(client)
	i := 0
	if fam != famV4 {
		i, _ = search(list, slot{fam: fam, bits: 255}) // sorts before every real scope
	}
	for i < len(list) && list[i].slotFam() == fam {
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
	if n := len(list); n > 0 && list[n-1].slotFam() == famShared {
		visit(list[n-1])
	}
}

// list returns key's residents, nil when it has none.
func (sh *shard) list(key Key) []*record {
	if q := sh.entries[key]; q != nil {
		return q.list
	}
	return nil
}

// lookup finds a live entry usable by client. Bounded shards take the
// write lock so a hit can be spliced to the front of the recency list;
// unbounded shards serve lookups under the read lock and scale with
// readers.
func (sh *shard) lookup(key Key, client netip.Addr, now time.Time) (Entry, bool) {
	if sh.bounded() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	} else {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	var hit *record
	covering(sh.list(key), client, func(r *record) bool {
		if r.expiry.After(now) {
			hit = r
		}
		return hit == nil
	})
	if hit == nil {
		return Entry{}, false
	}
	if sh.bounded() {
		sh.lru.moveFront(hit)
	}
	return hit.entry(), true
}

// lookupStale finds the freshest expired-but-recent positive entry
// usable by client (see Cache.LookupStale). Read lock only: stale
// serving is a degraded miss and does not touch recency.
func (sh *shard) lookupStale(key Key, client netip.Addr, now time.Time, maxStale time.Duration) (Entry, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var best *record
	covering(sh.list(key), client, func(r *record) bool {
		stale := !r.expiry.After(now) && r.expiry.Add(maxStale).After(now)
		// Only stale-but-valid positive answers are servable.
		positive := r.rcode == dnswire.RCodeNoError && r.recs != nil && len(r.recs.answer) > 0
		if stale && positive && (best == nil || r.expiry.After(best.expiry)) {
			best = r
		}
		return true
	})
	if best == nil {
		return Entry{}, false
	}
	return best.entry(), true
}

// collect removes q's records dead at now, in place and keeping the
// order, and recomputes q.due from the survivors. It reads the list only
// once now has reached q.due, and reports whether it did.
func (sh *shard) collect(q *question, now time.Time) bool {
	if unixNano(now) < q.due {
		return false
	}
	sh.examined += len(q.list)
	q.due = math.MaxInt64
	q.list = slices.DeleteFunc(q.list, func(r *record) bool {
		if r.expiry.After(now) {
			q.due = min(q.due, unixNano(r.expiry))
			return false
		}
		sh.drop(r, expiredRemoval)
		return true
	})
	return true
}

// release drops q from the map once its last record is gone.
func (sh *shard) release(q *question) {
	if len(q.list) == 0 {
		delete(sh.entries, q.key)
	}
}

// insert stores one record, collecting the key's expired records in
// passing when any can have expired, sharing a list neighbour's records
// when they are the same and storing a copy of the caller's otherwise,
// and evicting over-capacity residents from the LRU tail. It returns the
// records it stored.
func (sh *shard) insert(key Key, r *record, answer, authority []dnswire.RR, now time.Time) *records {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.entries[key]
	if q == nil {
		q = &question{key: key, due: math.MaxInt64}
		sh.entries[key] = q
	} else {
		sh.collect(q, now)
	}
	r.q = q
	i, occupied := search(q.list, r.slot())
	r.recs = sh.share(q, i, answer, authority)
	if occupied {
		sh.drop(q.list[i], replacedRemoval)
		q.list[i] = r
	} else {
		q.list = slices.Insert(q.list, i, r)
	}
	q.due = min(q.due, unixNano(r.expiry))
	sh.add()
	if sh.bounded() {
		sh.lru.pushFront(r)
		sh.evictOver(now)
	}
	return r.recs
}

// removalKind classifies why a record leaves the shard, driving the
// expiry/eviction counter split.
type removalKind int

const (
	expiredRemoval  removalKind = iota // dead when collected
	replacedRemoval                    // displaced by a same-slot insert
	evictedRemoval                     // capacity pressure (premature if live)
)

// add accounts one resident record arriving.
func (sh *shard) add() {
	sh.size++
	sh.owner.addLive(1)
}

// drop accounts one resident record leaving (storage removal itself is
// the caller's business, except for the recency list, handled here).
func (sh *shard) drop(r *record, kind removalKind) {
	sh.size--
	sh.owner.addLive(-1)
	if sh.bounded() {
		sh.lru.remove(r)
	}
	switch kind {
	case expiredRemoval:
		sh.owner.stats.expiries.Add(1)
	case evictedRemoval:
		sh.owner.stats.evictions.Add(1)
	}
}

// evictOver removes LRU-tail records until the shard is back under
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
		if victim.expiry.After(now) {
			sh.drop(victim, evictedRemoval)
		} else {
			sh.drop(victim, expiredRemoval)
		}
	}
}

// removeFromStorage detaches a resident record from its question's list
// (the recency list is handled by drop).
func (sh *shard) removeFromStorage(victim *record) {
	q := victim.q
	i, _ := search(q.list, victim.slot())
	q.list = slices.Delete(q.list, i, i+1)
	sh.release(q)
}

// purgeExpired drops records dead at now and returns how many were
// removed. Questions that are not due are skipped whole.
func (sh *shard) purgeExpired(now time.Time) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	before := sh.size
	for _, q := range sh.entries {
		if sh.collect(q, now) {
			sh.release(q)
		}
	}
	return before - sh.size
}

// lruList is the intrusive recency list threaded through record's
// lruPrev/lruNext fields: head.lruNext is the most recently used
// resident, head.lruPrev the eviction candidate. All operations are
// O(1) pointer splices under the shard lock.
type lruList struct {
	head record // sentinel
}

func (l *lruList) init() {
	l.head.lruPrev, l.head.lruNext = &l.head, &l.head
}

func (l *lruList) pushFront(r *record) {
	r.lruPrev = &l.head
	r.lruNext = l.head.lruNext
	r.lruNext.lruPrev = r
	l.head.lruNext = r
}

func (l *lruList) remove(r *record) {
	if r.lruNext == nil {
		return // never linked (or already removed)
	}
	r.lruPrev.lruNext = r.lruNext
	r.lruNext.lruPrev = r.lruPrev
	r.lruPrev, r.lruNext = nil, nil
}

func (l *lruList) moveFront(r *record) {
	if r.lruNext == nil || l.head.lruNext == r {
		return
	}
	l.remove(r)
	l.pushFront(r)
}

// tail returns the least-recently-used record, or nil when empty.
func (l *lruList) tail() *record {
	if l.head.lruPrev == &l.head {
		return nil
	}
	return l.head.lruPrev
}
