package ecscache

import (
	"slices"

	"ecsdns/internal/dnswire"
)

// share returns the records an insert at slot i of q's list keeps: a
// list neighbour's when it holds the same ones as answer and authority —
// the record before slot i or the one at it, which is either the
// occupant the insert replaces or the next slot — so a name answered
// alike for thousands of subnets stores its records once, and otherwise
// a copy of answer and authority of its own (own); nil when the answer
// has none. What is shared is decided by the records alone, and sharers
// hold one pointer. Records are never written once cached (see
// record.recs), so a sharer never sees one change, and they outlive any
// record that held them first.
func (sh *shard) share(q *question, i int, answer, authority []dnswire.RR) *records {
	if len(answer)+len(authority) == 0 {
		return nil
	}
	for _, j := range [2]int{i - 1, i} {
		if j < 0 || j >= len(q.list) {
			continue
		}
		if n := q.list[j].recs; n != nil && sameRecords(n.answer, answer) && sameRecords(n.authority, authority) {
			sh.owner.stats.shared.Add(1)
			return n
		}
	}
	return &records{answer: own(answer, q.key.Name), authority: own(authority, q.key.Name)}
}

// own returns a copy of rrs that shares no memory with it, nil when rrs
// is empty: each payload cloned with the names it holds
// (dnswire.CloneRData), and each owner name copied, except that one
// equal to name, the question's, is filed under name's string, which
// the cache keeps for the key anyway.
func own(rrs []dnswire.RR, name dnswire.Name) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		if rr.Name == name {
			rr.Name = name
		} else {
			rr.Name = rr.Name.Clone()
		}
		rr.Data = dnswire.CloneRData(rr.Data)
		out[i] = rr
	}
	return out
}

// sameRecords reports whether a and b hold the same records in the same
// order: owner name, class, TTL and payload compared by value.
func sameRecords(a, b []dnswire.RR) bool {
	return slices.EqualFunc(a, b, func(x, y dnswire.RR) bool {
		return x.Name == y.Name && x.Class == y.Class && x.TTL == y.TTL && sameRData(x.Data, y.Data)
	})
}

// sameRData compares two payloads by value. It knows the payloads the
// decoder hands out for the types a resolver caches; any other payload,
// a value-typed one included, never equals anything, so its record is
// kept as given.
func sameRData(a, b dnswire.RData) bool {
	switch x := a.(type) {
	case *dnswire.ARData:
		y, ok := b.(*dnswire.ARData)
		return ok && *x == *y
	case *dnswire.AAAARData:
		y, ok := b.(*dnswire.AAAARData)
		return ok && *x == *y
	case *dnswire.CNAMERData:
		y, ok := b.(*dnswire.CNAMERData)
		return ok && *x == *y
	case *dnswire.NSRData:
		y, ok := b.(*dnswire.NSRData)
		return ok && *x == *y
	case *dnswire.PTRRData:
		y, ok := b.(*dnswire.PTRRData)
		return ok && *x == *y
	case *dnswire.MXRData:
		y, ok := b.(*dnswire.MXRData)
		return ok && *x == *y
	case *dnswire.SOARData:
		y, ok := b.(*dnswire.SOARData)
		return ok && *x == *y
	}
	return false
}
