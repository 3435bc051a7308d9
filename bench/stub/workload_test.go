package stub

import (
	"bytes"
	"testing"
)

// wireSequence is the byte stream the clients of one run send for
// (workload, seed): each client's warm-up and the first 500 queries of
// its window.
func wireSequence(w Workload, seed int64) []byte {
	var out []byte
	for client := 0; client < Clients; client++ {
		g := NewGen(w, seed, client, Clients)
		for i, n := 0, warmupLen(g)+500; i < n; i++ {
			out = AppendQuery(out, uint16(i), g.Next())
		}
	}
	return out
}

func warmupLen(g *Gen) int {
	n := 0
	for _, step := range g.WarmupSteps() {
		n += step
	}
	return n
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range Workloads {
		if w.Scan {
			// ecsscan names its own probes (bulk<i>); the benchmark's only
			// input is the target list, which is the same for every seed.
			continue
		}
		a, b := wireSequence(w, 7), wireSequence(w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different query bytes", w.Name)
		}
		if c := wireSequence(w, 8); bytes.Equal(a, c) {
			t.Errorf("%s: another seed gave the same query bytes", w.Name)
		}
	}
}

// The warm-up must put the cache in the state the workload names: every
// hot name asked once, every scoped (name, subnet) pair asked exactly once.
func TestWarmupCoversTheWorkingSet(t *testing.T) {
	for _, name := range []string{"serve-hot", "serve-scoped"} {
		w, _ := ByName(name)
		seen := map[Item]int{}
		names := map[string]bool{}
		for client := 0; client < Clients; client++ {
			g := NewGen(w, 3, client, Clients)
			for i := warmupLen(g); i > 0; i-- {
				it := g.Next()
				seen[it]++
				names[it.Name] = true
			}
		}
		if len(names) != w.Names {
			t.Errorf("%s: warm-up touched %d names, want %d", name, len(names), w.Names)
		}
		if w.Zipf {
			continue
		}
		if len(seen) != w.Names*w.Subnets {
			t.Errorf("%s: prefill covered %d pairs, want %d", name, len(seen), w.Names*w.Subnets)
		}
		for it, n := range seen {
			if n != 1 {
				t.Fatalf("%s: pair %v prefilled %d times", name, it, n)
			}
		}
	}
}

func TestMissNamesNeverRepeat(t *testing.T) {
	w, _ := ByName("serve-miss")
	seen := map[string]bool{}
	for client := 0; client < Clients; client++ {
		g := NewGen(w, 5, client, Clients)
		for i := 0; i < 20000; i++ {
			it := g.Next()
			if seen[it.Name] {
				t.Fatalf("name %s generated twice", it.Name)
			}
			seen[it.Name] = true
		}
	}
}
