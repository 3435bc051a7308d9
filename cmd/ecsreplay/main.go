// Command ecsreplay runs the §7 cache simulations over a trace CSV (as
// produced by cmd/tracegen or exported from real logs in the same
// schema, in any order: it is sorted by time before the replay):
// blow-up factor, coverage-aware hit rates, and bounded-LRU eviction
// behavior.
//
// Usage:
//
//	tracegen -dataset allnames | ecsreplay
//	ecsreplay -in trace.csv -capacity 8192
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"ecsdns/internal/cachesim"
	"ecsdns/internal/traces"
)

func main() {
	in := flag.String("in", "-", "trace CSV path (- for stdin)")
	capacity := flag.Int("capacity", 0, "also replay through a bounded LRU of this many entries")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("ecsreplay: unexpected arguments %q (the trace path goes in -in)", flag.Args())
	}
	if *capacity < 0 {
		log.Fatalf("ecsreplay: -capacity must be >= 0, got %d", *capacity)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("ecsreplay: %v", err)
		}
		defer f.Close()
		r = f
	}
	if err := replay(os.Stdout, bufio.NewReader(r), *capacity); err != nil {
		log.Fatalf("ecsreplay: %v", err)
	}
}

// replay reads a trace CSV from r, puts it in time order (a log need not
// be) and writes the §7 report to w; capacity > 0 adds the bounded LRU.
func replay(w io.Writer, r io.Reader, capacity int) error {
	recs, err := traces.ReadRecords(r)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return errors.New("empty trace")
	}
	slices.SortStableFunc(recs, func(a, b traces.Record) int { return a.Time.Compare(b.Time) })

	blow := cachesim.Blowup(recs, 0)
	plain := cachesim.HitRate(recs, false)
	ecs := cachesim.HitRate(recs, true)

	fmt.Fprintf(w, "trace: %d records, %s → %s\n",
		len(recs), recs[0].Time.Format("15:04:05"), recs[len(recs)-1].Time.Format("15:04:05"))
	fmt.Fprintf(w, "max cache size:  %6d with ECS, %6d without → blow-up %.2f×\n",
		blow.MaxWithECS, blow.MaxWithoutECS, blow.Factor())
	fmt.Fprintf(w, "hit rate:        %6.1f%% with ECS, %6.1f%% without\n",
		ecs.HitRate(), plain.HitRate())

	if capacity > 0 {
		be := cachesim.BoundedReplay(recs, capacity, true)
		bp := cachesim.BoundedReplay(recs, capacity, false)
		fmt.Fprintf(w, "bounded LRU (%d entries):\n", capacity)
		fmt.Fprintf(w, "  with ECS:    hit %6.1f%%, %6.2f premature evictions/100q\n",
			be.HitRate(), be.EvictionRate())
		fmt.Fprintf(w, "  without ECS: hit %6.1f%%, %6.2f premature evictions/100q\n",
			bp.HitRate(), bp.EvictionRate())
	}
	return nil
}
