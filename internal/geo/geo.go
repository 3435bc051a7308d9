// Package geo provides the synthetic Internet used as a substitute for
// the paper's production substrate: a world of cities with coordinates,
// autonomous systems with address space carved into /24 (IPv4) and /48
// (IPv6) subnets mapped to cities, an IP→location lookup standing in for
// the EdgeScape geolocation service, and a distance-driven latency model.
//
// The address plan is deliberately simple and fully deterministic:
// IPv4 space is allocated in /16 blocks starting at 1.0.0.0 (skipping
// reserved ranges), each block belongs to one AS, and each /24 inside a
// block is pinned to one of the AS's cities. IPv6 mirrors this with one
// /32 per AS and /48 subnets.
package geo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
)

// AS is a synthetic autonomous system.
type AS struct {
	Number  int
	Name    string
	Country string
	// CityIdx are indices into Cities; every prefix of the AS lands in
	// one of these.
	CityIdx []int
	// Blocks are the /16 IPv4 blocks owned by this AS (the upper 16 bits
	// of the address).
	Blocks []uint16
	// V6Block is the upper 32 bits of the AS's IPv6 /32 allocation.
	V6Block uint32
}

// Internet is the built topology. It is immutable after Build and safe
// for concurrent use.
type Internet struct {
	ases []AS
	// blockOwner maps /16 (upper 16 address bits) → AS index.
	blockOwner map[uint16]int
	// blockCity maps /16 → 256 city indices, one per /24.
	blockCity map[uint16]*[256]uint8
	// v6Owner maps /32 (upper 32 bits) → AS index.
	v6Owner map[uint32]int
	// cityWeight drives client sampling.
	citySampler []float64
	// citySubnets precomputes, per catalog city, the /24 subnets (upper
	// 24 bits) mapped to it.
	citySubnets [][]uint32
}

// Config controls topology generation.
type Config struct {
	Seed int64
	// NumASes is the number of autonomous systems to create (min 1).
	NumASes int
	// BlocksPerAS is the number of /16 IPv4 blocks each AS receives.
	BlocksPerAS int
}

// DefaultConfig is sized so that experiments have plenty of distinct
// /24s (≈ 2.5M host addresses per AS) without large memory cost.
var DefaultConfig = Config{Seed: 1, NumASes: 400, BlocksPerAS: 2}

// Build constructs the synthetic Internet. The same Config always yields
// the same topology.
func Build(cfg Config) *Internet {
	if cfg.NumASes < 1 {
		cfg.NumASes = 1
	}
	if cfg.BlocksPerAS < 1 {
		cfg.BlocksPerAS = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Internet{
		blockOwner: make(map[uint16]int),
		blockCity:  make(map[uint16]*[256]uint8),
		v6Owner:    make(map[uint32]int),
	}
	for _, c := range Cities {
		w.citySampler = append(w.citySampler, c.Weight)
	}

	// Group catalog cities by country so an AS's footprint is plausible.
	countries := make([]string, 0)
	seen := map[string]bool{}
	for _, c := range Cities {
		if !seen[c.Country] {
			seen[c.Country] = true
			countries = append(countries, c.Country)
		}
	}
	sort.Strings(countries)

	nextBlock := uint16(1 << 8) // start at 1.0.0.0/16
	for i := 0; i < cfg.NumASes; i++ {
		// The first ASes are national incumbents, one per country and
		// covering all its cities, so that — as long as NumASes is at
		// least the number of catalog countries — every city has
		// address space. Later ASes pick a country and city subset at
		// random.
		var country string
		fullCoverage := i < len(countries)
		if fullCoverage {
			country = countries[i]
		} else {
			country = countries[rng.Intn(len(countries))]
		}
		cityIdx := CitiesInCountry(country)
		// Most non-incumbent ASes serve a subset of their country's
		// cities.
		if !fullCoverage && len(cityIdx) > 1 {
			n := 1 + rng.Intn(len(cityIdx))
			perm := rng.Perm(len(cityIdx))
			sub := make([]int, 0, n)
			for _, p := range perm[:n] {
				sub = append(sub, cityIdx[p])
			}
			sort.Ints(sub)
			cityIdx = sub
		}
		as := AS{
			Number:  64512 + i,
			Name:    fmt.Sprintf("AS%d-%s", 64512+i, country),
			Country: country,
			CityIdx: cityIdx,
			V6Block: 0x20010000 + uint32(i), // 2001:xxxx::/32 style
		}
		for b := 0; b < cfg.BlocksPerAS; b++ {
			blk := nextBlock
			nextBlock++
			// Skip blocks inside reserved /8s (0, 10, 127, 169, 172,
			// 192, 198, 203, 224+) so synthetic space is always
			// "routable" and never collides with test constants.
			for isReservedHi(blk >> 8) {
				blk = nextBlock
				nextBlock++
			}
			as.Blocks = append(as.Blocks, blk)
			w.blockOwner[blk] = i
			var cities [256]uint8
			for s := 0; s < 256; s++ {
				cities[s] = uint8(cityIdx[rng.Intn(len(cityIdx))])
			}
			w.blockCity[blk] = &cities
		}
		w.v6Owner[as.V6Block] = i
		w.ases = append(w.ases, as)
	}
	w.citySubnets = make([][]uint32, len(Cities))
	blocks := make([]uint16, 0, len(w.blockCity))
	for blk := range w.blockCity {
		blocks = append(blocks, blk)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, blk := range blocks {
		cities := w.blockCity[blk]
		for s := 0; s < 256; s++ {
			ci := int(cities[s])
			w.citySubnets[ci] = append(w.citySubnets[ci], uint32(blk)<<8|uint32(s))
		}
	}
	return w
}

func isReservedHi(hi uint16) bool {
	switch hi {
	case 0, 10, 100, 127, 169, 172, 192, 198, 203:
		return true
	}
	return hi >= 224
}

// NumASes returns the number of autonomous systems.
func (w *Internet) NumASes() int { return len(w.ases) }

// ASByIndex returns the i-th AS.
func (w *Internet) ASByIndex(i int) AS { return w.ases[i] }

// ASOf returns the AS owning addr's block and true, or a zero AS and
// false for addresses outside the synthetic plan.
func (w *Internet) ASOf(addr netip.Addr) (AS, bool) {
	idx, ok := w.asIndexOf(addr)
	if !ok {
		return AS{}, false
	}
	return w.ases[idx], true
}

func (w *Internet) asIndexOf(addr netip.Addr) (int, bool) {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if addr.Is4() {
		a := addr.As4()
		blk := uint16(a[0])<<8 | uint16(a[1])
		idx, ok := w.blockOwner[blk]
		return idx, ok
	}
	a := addr.As16()
	hi := binary.BigEndian.Uint32(a[:4])
	idx, ok := w.v6Owner[hi]
	return idx, ok
}

// Locate is the EdgeScape substitute: it maps an address to the location
// of its /24 (IPv4) or /48 (IPv6) subnet. The bool is false for addresses
// outside the plan (reserved, loopback, etc.).
func (w *Internet) Locate(addr netip.Addr) (Location, bool) {
	ci, ok := w.cityIndexOf(addr)
	if !ok {
		return Location{}, false
	}
	return cityLocation(ci), true
}

func (w *Internet) cityIndexOf(addr netip.Addr) (int, bool) {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if addr.Is4() {
		a := addr.As4()
		blk := uint16(a[0])<<8 | uint16(a[1])
		cities, ok := w.blockCity[blk]
		if !ok {
			return 0, false
		}
		return int(cities[a[2]]), true
	}
	a := addr.As16()
	hi := binary.BigEndian.Uint32(a[:4])
	asIdx, ok := w.v6Owner[hi]
	if !ok {
		return 0, false
	}
	as := w.ases[asIdx]
	// /48 index selects deterministically among the AS's cities.
	sub := binary.BigEndian.Uint16(a[4:6])
	return as.CityIdx[int(sub)%len(as.CityIdx)], true
}

// Location is a resolved geographic position.
type Location struct {
	City    string
	Country string
	Lat     float64
	Lon     float64
}

func cityLocation(i int) Location {
	c := Cities[i]
	return Location{City: c.Name, Country: c.Country, Lat: c.Lat, Lon: c.Lon}
}

// LocationOfCity returns the location of a catalog city by index.
func LocationOfCity(i int) Location { return cityLocation(i) }

// AddrInCity returns a deterministic IPv4 address in the given city: the
// n-th host of the n-th matching /24 across the address plan. Different
// (salt, host) pairs give different subnets/hosts. It panics if no AS
// covers the city (the default catalog always has coverage).
func (w *Internet) AddrInCity(cityIdx int, salt, host int) netip.Addr {
	subnets := w.subnetsInCity(cityIdx)
	if len(subnets) == 0 {
		panic(fmt.Sprintf("geo: no /24 in city %s", Cities[cityIdx].Name))
	}
	s := subnets[salt%len(subnets)]
	return netip.AddrFrom4([4]byte{byte(s >> 16), byte(s >> 8), byte(s), byte(1 + host%254)})
}

// subnetsInCity returns all /24 subnets (as the upper 24 bits) mapped to
// the city.
func (w *Internet) subnetsInCity(cityIdx int) []uint32 {
	return w.citySubnets[cityIdx]
}

// RandomClient draws a random client IPv4 address, with cities weighted
// by population.
func (w *Internet) RandomClient(rng *rand.Rand) netip.Addr {
	ci := w.randomCity(rng)
	subnets := w.subnetsInCity(ci)
	for subnets == nil {
		ci = w.randomCity(rng)
		subnets = w.subnetsInCity(ci)
	}
	s := subnets[rng.Intn(len(subnets))]
	return netip.AddrFrom4([4]byte{byte(s >> 16), byte(s >> 8), byte(s), byte(1 + rng.Intn(254))})
}

// RandomClientV6 draws a random IPv6 client address.
func (w *Internet) RandomClientV6(rng *rand.Rand) netip.Addr {
	as := w.ases[rng.Intn(len(w.ases))]
	var a [16]byte
	binary.BigEndian.PutUint32(a[:4], as.V6Block)
	binary.BigEndian.PutUint16(a[4:6], uint16(rng.Intn(1<<16)))
	a[15] = byte(1 + rng.Intn(254))
	return netip.AddrFrom16(a)
}

func (w *Internet) randomCity(rng *rand.Rand) int {
	total := 0.0
	for _, wt := range w.citySampler {
		total += wt
	}
	r := rng.Float64() * total
	for i, wt := range w.citySampler {
		r -= wt
		if r < 0 {
			return i
		}
	}
	return len(w.citySampler) - 1
}

// DistanceKm returns the great-circle distance between two locations in
// kilometers (haversine on a spherical Earth).
func DistanceKm(a, b Location) float64 {
	const earthRadiusKm = 6371.0
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Latency model constants: a fixed access/processing overhead plus a
// distance-proportional term. With these values Cleveland→Chicago comes
// out ≈25 ms and Cleveland→Johannesburg ≈290 ms, matching the scale of
// the paper's Table 2 measurements.
const (
	BaseRTTMillis   = 14.0
	MillisPerKm     = 0.02
	earthHalfTurnKm = 20037.0
)

// RTTMillis returns the modeled round-trip time between two locations.
func RTTMillis(a, b Location) float64 {
	return BaseRTTMillis + DistanceKm(a, b)*MillisPerKm
}
