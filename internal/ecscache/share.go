package ecscache

import (
	"slices"

	"ecsdns/internal/dnswire"
)

// share hands stored the record slices of a list neighbour holding the
// same records — the entry before slot i or the one at it, which is
// either the occupant stored replaces or the next slot — so a name
// answered alike for thousands of subnets stores its records once. What
// is shared is decided by the records alone. Records are never written
// once cached (see Entry.Answer), so a sharer never sees one change, and
// they outlive any entry that held them first.
func (sh *shard) share(list []*Entry, i int, stored *Entry) {
	for _, j := range [2]int{i - 1, i} {
		if j < 0 || j >= len(list) {
			continue
		}
		n := list[j]
		if !sameRecords(n.Answer, stored.Answer) || !sameRecords(n.Authority, stored.Authority) {
			continue
		}
		if len(n.Answer)+len(n.Authority) > 0 {
			stored.Answer, stored.Authority = n.Answer, n.Authority
			sh.owner.stats.shared.Add(1)
		}
		return
	}
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
