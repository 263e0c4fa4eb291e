package workload

import "math/rand"

// Graph is a directed graph in CSR (compressed sparse row) form, the
// representation the GAP benchmark suite uses. Offsets has n+1 entries;
// the neighbors of vertex u are Neighbors[Offsets[u]:Offsets[u+1]].
type Graph struct {
	N         int
	Offsets   []int32
	Neighbors []int32
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neigh returns the neighbor slice of u (shared storage; do not mutate).
func (g *Graph) Neigh(u int32) []int32 {
	return g.Neighbors[g.Offsets[u]:g.Offsets[u+1]]
}

// graphCfg identifies a synthetic graph.
type graphCfg struct {
	n    int
	deg  int
	seed int64
}

// blockShift sets the vertex blocks the builder sorts one at a time:
// 256 vertices, whose ~256*deg edge keys (24 KB at degree 12) and their
// scratch stay in cache while the block is sorted. One radix sort over
// all keys scatters every pass across the whole array instead.
const blockShift = 8

// NewSkewedGraph builds a graph with n vertices and ~n*deg edges whose
// degree distribution is power-law-skewed (Kronecker/RMAT-like), the
// character of the GAP input graphs. Endpoint choice squares a uniform
// variate so low-numbered vertices act as hubs. Neighbor lists are
// sorted and deduplicated, as GAP's builder produces.
//
// Each edge u->v is packed into the key u<<32|v, so sorting the keys
// sorts by source, then by target: the CSR order. One counting pass
// splits the keys into blocks of 1<<blockShift sources, each block is
// radix-sorted in cache, and duplicates are dropped as the block is
// copied back. The build holds two key arrays (16 bytes per generated
// edge) while it sorts; the returned arrays are exact-size. A GAP input
// graph (600k vertices, degree 12) takes 7 allocations and 146 MB, of
// which the 31 MB of CSR arrays outlive the build.
func NewSkewedGraph(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := n * deg
	keys := make([]uint64, 0, edges)
	// pos[b] counts block b's keys, then becomes its write position.
	pos := make([]int, n>>blockShift+1)
	for i := 0; i < edges; i++ {
		u := int32(rng.Intn(n))
		// Skewed target: squaring biases toward 0, creating hubs.
		f := rng.Float64()
		v := int32(f * f * float64(n))
		if v >= int32(n) {
			v = int32(n - 1)
		}
		if u == v {
			continue
		}
		keys = append(keys, uint64(u)<<32|uint64(v))
		pos[u>>blockShift]++
	}
	sum := 0
	for b, c := range pos {
		pos[b] = sum
		sum += c
	}
	blocked := make([]uint64, len(keys))
	for _, k := range keys {
		b := k >> (32 + blockShift)
		blocked[pos[b]] = k
		pos[b]++
	}
	// pos[b] is now block b's end. Each block is sorted with its own
	// stretch of keys as scratch, and its distinct keys are copied down
	// to keys[:w]. w stays at or behind the key being read, so the copy
	// is safe whichever array radixSort left the block in.
	w, lo := 0, 0
	for _, hi := range pos {
		for _, k := range radixSort(blocked[lo:hi], keys[lo:hi]) {
			if w == 0 || k != keys[w-1] {
				keys[w] = k
				w++
			}
		}
		lo = hi
	}
	g := &Graph{N: n, Offsets: make([]int32, n+1), Neighbors: make([]int32, w)}
	for i, k := range keys[:w] {
		g.Offsets[k>>32+1]++
		g.Neighbors[i] = int32(k)
	}
	for u := 0; u < n; u++ {
		g.Offsets[u+1] += g.Offsets[u]
	}
	return g
}

// radixSort sorts keys by least-significant-digit radix sort on bytes,
// using tmp (the same length) as scratch, and returns whichever of the
// two holds the result. Bytes on which all keys agree are skipped.
func radixSort(keys, tmp []uint64) []uint64 {
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var pos [256]int
		for _, k := range keys {
			pos[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[pos[d]] = k
			pos[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Graph construction is the most expensive part of GAP trace
// generation, and the experiment harness generates each trace under
// many configurations, so graphs are memoized. Each graph is built once,
// outside the cache's lock, so distinct graphs build in parallel.
var graphs memo[graphCfg, *Graph]

func getGraph(cfg graphCfg) *Graph {
	return graphs.get(cfg, func() *Graph { return NewSkewedGraph(cfg.n, cfg.deg, cfg.seed) })
}
