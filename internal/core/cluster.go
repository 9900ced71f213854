package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"bytebrain/internal/dedup"
)

// bnode is a clustering-tree node under construction, before flattening
// into model Nodes.
type bnode struct {
	members    []*dedup.Unique
	template   []string
	saturation float64
	depth      int
	children   []*bnode
	weight     int // duplicate-weighted count
}

// buildTree hierarchically clusters one initial group into a tree (§4.3).
// rng must be dedicated to this group; training is deterministic because
// each group derives its generator from the seed and the group key.
func buildTree(members []*dedup.Unique, o *Options, rng *rand.Rand) *bnode {
	return buildNode(codeMembers(members, o.SemanticHints), o, rng, 0, -1)
}

// buildNode creates the node for the members of cs and recursively splits
// it while saturation can still improve. parentSat is the saturation of
// the parent node (-1 at the root, so any score counts as an improvement).
func buildNode(cs *coding, o *Options, rng *rand.Rand, depth int, parentSat float64) *bnode {
	st := newPosStats(cs)
	sat := st.saturation(o)
	// Clamp to keep the root-to-leaf saturation sequence non-decreasing,
	// the invariant query-time rollup relies on (§3: "strictly increases
	// with tree depth").
	if sat < parentSat {
		sat = parentSat
	}
	n := &bnode{
		members:    cs.members,
		template:   st.template(),
		saturation: sat,
		depth:      depth,
		weight:     st.weight,
	}
	if sat >= 1 || depth >= o.MaxDepth || len(cs.members) <= 1 {
		return n
	}

	parts := splitNode(cs, st, sat, o, rng)
	if len(parts) <= 1 {
		// The clustering process failed to separate the members and no
		// positional fallback applies: accept the node as a leaf.
		return n
	}
	for _, p := range parts {
		n.children = append(n.children, buildNode(cs.subset(p), o, rng, depth+1, sat))
	}
	return n
}

// splitNode partitions the members of cs into sub-clusters, given as
// member indexes, applying the early-stop shortcuts of §4.7 before running
// the full clustering process.
func splitNode(cs *coding, st *posStats, parentSat float64, o *Options, rng *rand.Rand) [][]int32 {
	n := len(cs.members)
	if !o.NoEarlyStop {
		// Rule 1: two (unique) logs form their own clusters.
		// Rule 3: every unresolved position is fully distinct — the logs
		// are inherently dissimilar; each forms its own cluster.
		if n == 2 || allUnresolvedDistinct(st) {
			parts := make([][]int32, n)
			for i := range parts {
				parts[i] = []int32{int32(i)}
			}
			return parts
		}
	}
	parts := clusterOnce(cs, parentSat, o, rng)
	if len(parts) <= 1 {
		parts = positionalFallback(cs, st)
	}
	return parts
}

// allUnresolvedDistinct reports whether every unresolved position has a
// different token in every member (n_u(i) == n). Duplicated streams
// (NoDedup) can never satisfy this, which is intended: early stop is one of
// the dedup-dependent optimizations.
func allUnresolvedDistinct(st *posStats) bool {
	any := false
	for _, nu := range st.distinct {
		if nu == 1 {
			continue
		}
		any = true
		if int(nu) != st.n {
			return false
		}
	}
	return any
}

// clusterOnce is the single clustering process of §4.4: K-means-style
// iterative assignment under positional similarity, with K-means++ seeding,
// balanced tie-breaking and saturation-guided cluster injection. It
// returns the non-empty clusters as ascending member indexes into cs.
func clusterOnce(cs *coding, parentSat float64, o *Options, rng *rand.Rand) [][]int32 {
	n := len(cs.members)
	if n < 2 {
		return [][]int32{allMembers(n)}
	}
	cl := newClusters(cs, o.NoPositionImportance)

	// Seed two clusters. First centroid random; second the member
	// farthest from (least similar to) the first, unless the ablation
	// asks for fully random centroids.
	first := rng.Intn(n)
	cl.move(first, cl.open())
	var second int
	if o.RandomCentroids {
		second = rng.Intn(n - 1)
		if second >= first {
			second++
		}
	} else {
		best, bestSim := -1, 2.0
		for i, sim := range cl.similarities(0) {
			if i != first && sim < bestSim {
				bestSim, best = sim, i
			}
		}
		second = best
	}
	cl.move(second, cl.open())

	next := make([]int, n)
	ties := make([]int, 0, 4)
	for iter := 0; iter < o.MaxIters; iter++ {
		for c := range cl.stats {
			cl.similarities(c)
		}
		for i := 0; i < n; i++ {
			bestSim := -1.0
			ties = ties[:0]
			for c, st := range cl.stats {
				if st.n == 0 {
					continue
				}
				sim := cl.sims[c][i]
				switch {
				case sim > bestSim+simEps:
					bestSim = sim
					ties = append(ties[:0], c)
				case sim > bestSim-simEps:
					ties = append(ties, c)
				}
			}
			choice := ties[0]
			if len(ties) > 1 && !o.NoBalancedGrouping {
				// Balanced grouping (§4.6): uniform among equals.
				choice = ties[rng.Intn(len(ties))]
			}
			next[i] = choice
		}
		changed := false
		for i, c := range next {
			if c != cl.assign[i] {
				cl.move(i, c)
				changed = true
			}
		}

		grew := false
		if !o.NoEnsureSaturationIncrease && len(cl.stats) < n {
			// If some cluster failed to improve on the parent, inject a
			// new cluster seeded with the member farthest from every
			// existing cluster (§4.4).
			for _, st := range cl.stats {
				if st.n == 0 {
					continue
				}
				if st.n == n || st.saturation(o) <= parentSat+satEps {
					if far := cl.farthest(); far >= 0 {
						cl.move(far, cl.open())
						grew = true
					}
					break
				}
			}
		}
		if !changed && !grew {
			break
		}
	}

	parts := make([][]int32, len(cl.stats))
	for i, c := range cl.assign {
		parts[c] = append(parts[c], int32(i))
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

const (
	simEps = 1e-12
	satEps = 1e-12
)

// clusters is the state of one clustering process: each member's
// cluster, each cluster's statistics, kept up to date member by member,
// and the similarity of every member to each cluster. A cluster's
// similarities are recomputed only after its membership changes; the
// counts are integers, so updating them in place gives exactly the
// statistics a recount would.
type clusters struct {
	cs    *coding
	noPos bool
	// assign[i] is member i's cluster, or -1.
	assign []int
	stats  []*posStats
	// sims[c][i] is the similarity of member i to cluster c, valid
	// while fresh[c].
	sims  [][]float64
	fresh []bool
}

func newClusters(cs *coding, noPositionImportance bool) *clusters {
	cl := &clusters{cs: cs, noPos: noPositionImportance, assign: make([]int, len(cs.members))}
	for i := range cl.assign {
		cl.assign[i] = -1
	}
	return cl
}

// open adds an empty cluster and returns its index.
func (cl *clusters) open() int {
	cl.stats = append(cl.stats, emptyStats(cl.cs))
	cl.sims = append(cl.sims, make([]float64, len(cl.cs.members)))
	cl.fresh = append(cl.fresh, false)
	return len(cl.stats) - 1
}

// move reassigns member i to cluster c.
func (cl *clusters) move(i, c int) {
	if old := cl.assign[i]; old >= 0 {
		cl.stats[old].uncount(cl.cs, i)
		cl.fresh[old] = false
	}
	cl.assign[i] = c
	cl.stats[c].count(cl.cs, i)
	cl.fresh[c] = false
}

// similarities returns every member's similarity to cluster c,
// recomputing them if c changed since they were last computed.
func (cl *clusters) similarities(c int) []float64 {
	st := cl.stats[c]
	if !cl.fresh[c] && st.n > 0 {
		st.weigh(cl.noPos)
		for i := range cl.sims[c] {
			cl.sims[c][i] = st.similarity(cl.cs.row(i))
		}
		cl.fresh[c] = true
	}
	return cl.sims[c]
}

// farthest returns the index of the member with the smallest maximum
// similarity to any non-empty cluster.
func (cl *clusters) farthest() int {
	for c := range cl.stats {
		cl.similarities(c)
	}
	best, bestScore := -1, 2.0
	for i := range cl.assign {
		maxSim := -1.0
		for c, st := range cl.stats {
			if st.n == 0 {
				continue
			}
			if sim := cl.sims[c][i]; sim > maxSim {
				maxSim = sim
			}
		}
		if maxSim < bestScore {
			bestScore, best = maxSim, i
		}
	}
	return best
}

// allMembers returns the indexes 0..n-1.
func allMembers(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// positionalFallback splits the members of cs by their token at the
// lowest-cardinality unresolved position, in ascending token-code order. It
// guarantees progress (each part gains a constant position) when the
// clustering process degenerates to a single cluster.
func positionalFallback(cs *coding, st *posStats) [][]int32 {
	pos := -1
	bestCard := int32(math.MaxInt32)
	for i, nu := range st.distinct {
		if nu > 1 && nu < bestCard {
			bestCard, pos = nu, i
		}
	}
	idx := allMembers(len(cs.members))
	if pos < 0 {
		return [][]int32{idx}
	}
	code := func(j int32) uint64 { return cs.members[j].Enc[pos] }
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(code(a), code(b)) })
	parts := make([][]int32, 0, bestCard)
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && code(idx[hi]) == code(idx[lo]) {
			hi++
		}
		parts = append(parts, idx[lo:hi:hi])
		lo = hi
	}
	return parts
}
