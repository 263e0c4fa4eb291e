package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// referenceGraph is NewSkewedGraph written the obvious way: the same
// seeded edge stream collected into a set per source vertex, each set
// then sorted.
func referenceGraph(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([]map[int32]bool, n)
	for i := 0; i < n*deg; i++ {
		u := int32(rng.Intn(n))
		f := rng.Float64()
		v := int32(f * f * float64(n))
		if v >= int32(n) {
			v = int32(n - 1)
		}
		if u == v {
			continue
		}
		if adj[u] == nil {
			adj[u] = map[int32]bool{}
		}
		adj[u][v] = true
	}
	g := &Graph{N: n, Offsets: make([]int32, n+1)}
	for u, set := range adj {
		ns := make([]int32, 0, len(set))
		for v := range set {
			ns = append(ns, v)
		}
		slices.Sort(ns)
		g.Neighbors = append(g.Neighbors, ns...)
		g.Offsets[u+1] = int32(len(g.Neighbors))
	}
	return g
}

func TestSkewedGraphMatchesReference(t *testing.T) {
	same := func(n, deg int, seed int64) bool {
		got, want := NewSkewedGraph(n, deg, seed), referenceGraph(n, deg, seed)
		return got.N == n && slices.Equal(got.Offsets, want.Offsets) &&
			slices.Equal(got.Neighbors, want.Neighbors) &&
			cap(got.Neighbors) == len(got.Neighbors)
	}
	// n=1 makes every edge a self-loop; n=2 with a high degree makes
	// most edges duplicates; 257 vertices span two sort blocks.
	for _, c := range []struct{ n, deg int }{{0, 0}, {0, 5}, {1, 0}, {1, 12}, {2, 50}, {300, 0}, {257, 3}} {
		if !same(c.n, c.deg, 7) {
			t.Errorf("NewSkewedGraph(%d, %d, 7) differs from the reference", c.n, c.deg)
		}
	}
	f := func(seed int64, nRaw uint16, dRaw uint8) bool {
		return same(int(nRaw)%2000, int(dRaw)%9, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSkewedGraphPins pins the four GAP input graphs: an FNV-1a-64 hash
// over the little-endian Offsets, then Neighbors, and the edge count.
// Every GAP trace, and so every GAP figure cell, depends on these.
func TestSkewedGraphPins(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four 600k-vertex graphs")
	}
	for _, pin := range []struct {
		seed  int64
		hash  string
		edges int
	}{
		{42, "e72cb4c84bfce509", 7_199_682},
		{45, "185e71c26fc2b554", 7_199_663},
		{47, "a6c071cb8d6a2304", 7_199_692},
		{56, "d696a283c5c41cba", 7_199_680},
	} {
		g := NewSkewedGraph(600_000, 12, pin.seed)
		h := fnv.New64a()
		if err := binary.Write(h, binary.LittleEndian, g.Offsets); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, g.Neighbors); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != pin.hash || len(g.Neighbors) != pin.edges {
			t.Errorf("seed %d: hash %s with %d edges, want %s with %d", pin.seed, got, len(g.Neighbors), pin.hash, pin.edges)
		}
	}
}

// TestSkewedGraphAllocsConstant caps the builder's allocations per
// graph. The count is the same at any size (7 today); a builder that
// allocates per vertex makes about n.
func TestSkewedGraphAllocsConstant(t *testing.T) {
	const limit = 10
	if got := testing.AllocsPerRun(3, func() { NewSkewedGraph(10_000, 12, 1) }); got > limit {
		t.Errorf("NewSkewedGraph(10000, 12) made %.0f allocations, want at most %d", got, limit)
	}
}

var graphSink *Graph

// BenchmarkNewSkewedGraph builds one GAP input graph (600k vertices,
// ~7.2M edges).
func BenchmarkNewSkewedGraph(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = NewSkewedGraph(600_000, 12, 42)
	}
}
