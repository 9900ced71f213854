package core

import (
	"math"
	"math/bits"

	"bytebrain/internal/dedup"
)

// coding is one node's members with every position dictionary-coded:
// member j's token at position i is the slot codes[j*m+i], and members
// carrying the same token at the same position share a slot. Per-position
// token counts are then flat arrays indexed by slot, and only the root of
// a tree hashes token codes: every node below recodes from its parent.
type coding struct {
	members []*dedup.Unique
	m       int
	codes   []int32
	// slots is the number of distinct (position, token) pairs.
	slots int
	// typed[s] reports whether slot s holds a typed token (see
	// typedToken); nil unless SemanticHints asked for the evidence.
	typed []bool
	// remap is scratch for subset, all -1 between calls. Every coding
	// derived from one root shares it: a subset never has more slots
	// than the coding it came from.
	remap []int32
}

// codeMembers dictionary-codes members (all of identical length) from
// their token encodings, one position at a time, through an
// open-addressing table keyed by the code. typed records the
// SemanticHints evidence.
func codeMembers(members []*dedup.Unique, typed bool) *coding {
	n := len(members)
	cs := &coding{members: members}
	if n == 0 {
		return cs
	}
	m := len(members[0].Enc)
	cs.m = m
	cs.codes = make([]int32, n*m)
	// A power-of-two table at least twice the member count keeps probe
	// runs short; codes are multiplied by a 64-bit odd constant and the
	// top bits index the table, which spreads ordinal codes as well as
	// hashes.
	bitsLen := bits.Len(uint(2 * n))
	size, shift := 1<<bitsLen, 64-bitsLen
	keys := make([]uint64, size)
	slot := make([]int32, size)
	for h := range slot {
		slot[h] = -1
	}
	used := make([]int, 0, n)
	next := int32(0)
	for i := 0; i < m; i++ {
		for j, u := range members {
			code := u.Enc[i]
			h := int((code * 0x9e3779b97f4a7c15) >> shift)
			for slot[h] >= 0 && keys[h] != code {
				h = (h + 1) & (size - 1)
			}
			if slot[h] < 0 {
				keys[h], slot[h] = code, next
				next++
				used = append(used, h)
				if typed {
					cs.typed = append(cs.typed, typedToken(u.Tokens[i]))
				}
			}
			cs.codes[j*m+i] = slot[h]
		}
		for _, h := range used {
			slot[h] = -1
		}
		used = used[:0]
	}
	cs.slots = int(next)
	cs.remap = make([]int32, cs.slots)
	for s := range cs.remap {
		cs.remap[s] = -1
	}
	return cs
}

// row returns member j's slots.
func (cs *coding) row(j int) []int32 { return cs.codes[j*cs.m : (j+1)*cs.m] }

// subset codes the members at the given indexes into cs, in that order,
// renumbering the slots they use densely.
func (cs *coding) subset(idx []int32) *coding {
	m := cs.m
	sub := &coding{
		members: make([]*dedup.Unique, len(idx)),
		m:       m,
		codes:   make([]int32, len(idx)*m),
		remap:   cs.remap,
	}
	next := int32(0)
	for k, j := range idx {
		sub.members[k] = cs.members[j]
		dst := sub.codes[k*m : (k+1)*m]
		for i, s := range cs.row(int(j)) {
			t := cs.remap[s]
			if t < 0 {
				t = next
				next++
				cs.remap[s] = t
				if cs.typed != nil {
					sub.typed = append(sub.typed, cs.typed[s])
				}
			}
			dst[i] = t
		}
	}
	sub.slots = int(next)
	for _, j := range idx {
		for _, s := range cs.row(int(j)) {
			cs.remap[s] = -1
		}
	}
	return sub
}

// posStats summarizes per-position token distributions for a set of logs
// of equal token count, drawn from one coding. It backs both the
// positional-similarity distance (Eq. 2) and the saturation score (Eq. 3).
type posStats struct {
	// counts[s] is the number of member logs carrying slot s. Members
	// are unique (deduplicated) logs; each counts 1.
	counts []int32
	// distinct[i] is n_i, the number of distinct tokens at position i.
	distinct []int32
	// typed[i] counts member tokens at position i that look like typed
	// values (digit-bearing, path-like) — the SemanticHints evidence.
	// Nil when the coding carries no typed flags.
	typed []int32
	// rep is the token text of the first member, used to render
	// constant positions in template text.
	rep []string
	// n is the number of member logs.
	n int
	// weight is the duplicate-weighted member count (Σ Count).
	weight int
	// w[i] and wsum are the Eq. 2 position weights and their sum, and
	// freq[s] = counts[s]/n the relative frequency of slot s, all set by
	// weigh once the members are counted.
	w    []float64
	wsum float64
	freq []float64
}

// typedToken reports whether a token looks like a typed value rather than
// a word: it carries a digit, or is an absolute path.
func typedToken(s string) bool {
	if len(s) > 0 && s[0] == '/' {
		return true
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// emptyStats returns zeroed statistics shaped for cs.
func emptyStats(cs *coding) *posStats {
	st := &posStats{
		counts:   make([]int32, cs.slots),
		distinct: make([]int32, cs.m),
	}
	if cs.typed != nil {
		st.typed = make([]int32, cs.m)
	}
	return st
}

// newPosStats computes statistics over every member of cs.
func newPosStats(cs *coding) *posStats {
	st := emptyStats(cs)
	for j := range cs.members {
		st.count(cs, j)
	}
	return st
}

// count incorporates member j of cs.
func (st *posStats) count(cs *coding, j int) {
	u := cs.members[j]
	if st.n == 0 {
		st.rep = u.Tokens
	}
	row := cs.row(j)
	distinct := st.distinct[:len(row)]
	for i, s := range row {
		if st.counts[s] == 0 {
			distinct[i]++
		}
		st.counts[s]++
	}
	if st.typed != nil {
		for i, s := range row {
			if cs.typed[s] {
				st.typed[i]++
			}
		}
	}
	st.n++
	st.weight += u.Count
}

// uncount removes member j of cs, counted earlier. rep keeps the tokens
// of whichever member was counted first; only node statistics, which
// never lose members, render it.
func (st *posStats) uncount(cs *coding, j int) {
	row := cs.row(j)
	distinct := st.distinct[:len(row)]
	for i, s := range row {
		st.counts[s]--
		if st.counts[s] == 0 {
			distinct[i]--
		}
	}
	if st.typed != nil {
		for i, s := range row {
			if cs.typed[s] {
				st.typed[i]--
			}
		}
	}
	st.n--
	st.weight -= cs.members[j].Count
}

// weigh sets the Eq. 2 position weights from the distinct counts:
// w_i = 1/(n_i − 1), capped at 2 for constant positions, where the
// paper's formula divides by zero; w_i = 1 for the NoPositionImportance
// ablation.
func (st *posStats) weigh(noPositionImportance bool) {
	if st.w == nil {
		st.w = make([]float64, len(st.distinct))
		st.freq = make([]float64, len(st.counts))
	}
	st.wsum = 0
	for i, nu := range st.distinct {
		w := 1.0
		if !noPositionImportance {
			d := float64(nu) - 1
			if d < 0.5 {
				d = 0.5
			}
			w = 1 / d
		}
		st.w[i] = w
		st.wsum += w
	}
	inv := 1.0 / float64(st.n)
	for s, c := range st.counts {
		st.freq[s] = float64(c) * inv
	}
}

// positions returns the token count m.
func (st *posStats) positions() int { return len(st.distinct) }

// similarity computes the positional similarity of Eq. 2 between a log,
// given as its slots in the coding st counts, and the cluster st
// summarizes:
//
//	sim(L,C) = Σ w_i · f_i(L,C) / Σ w_i
//
// where f_i is the relative frequency of L's token at position i among
// the cluster members and w_i the weight set by weigh. Values lie in
// [0,1]; the paper's "distance" is 1 − similarity, and logs are assigned
// to the most similar cluster.
func (st *posStats) similarity(row []int32) float64 {
	if st.n == 0 || len(row) != len(st.w) {
		return 0
	}
	var num float64
	w := st.w[:len(row)]
	for i, s := range row {
		num += w[i] * st.freq[s]
	}
	if st.wsum == 0 {
		return 0
	}
	return num / st.wsum
}

// Variable declaration thresholds: a position whose distinct-token count
// reaches both bounds is a "likely variable" (§4.5: saturation "considers
// both confirmed constants and likely variables") and counts as resolved.
// The minimum-evidence guard keeps tiny nodes — like the three-log sets of
// Fig. 5 — in the conservative regime where only structure, not
// statistics, can resolve a position. Table 4 shows the effect at scale:
// high-cardinality positions (lock, uid, pid) stay wildcards at every
// precision level while low-cardinality positions (name, ws) keep
// refining.
const (
	declareMinDistinct = 10
	declareAbsolute    = 32
	declareRatio       = 0.3
)

// declaredVariable reports whether position i is statistically resolved as
// a variable: at least declareMinDistinct distinct tokens, and either a
// large absolute vocabulary (bounded variables like ports and PIDs stay
// below any fixed fraction of n once n is large) or a high distinct ratio
// (small nodes where most members disagree at the position). With
// semantic hints (§8 extension), a position whose tokens are nearly all
// typed values qualifies with only a quarter of the distinct-count
// evidence.
func (st *posStats) declaredVariable(i int, semantic bool) bool {
	nu := int(st.distinct[i])
	if semantic && nu > 1 && st.typed != nil &&
		float64(st.typed[i]) >= 0.95*float64(st.n) &&
		nu*4 >= declareMinDistinct {
		return true
	}
	if nu < declareMinDistinct {
		return false
	}
	return nu >= declareAbsolute || float64(nu) >= declareRatio*float64(st.n)
}

// fullyDistinctVariable reports whether a position with nu distinct tokens
// qualifies for the small-node fully-distinct rule (Fig. 5 Set 1): nearly
// every member carries its own value, and members are barely duplicated. A
// handful of unique values carrying heavy duplicate weight is categorical
// evidence, not variable sampling, hence the weight guard.
func (st *posStats) fullyDistinctVariable(nu int) bool {
	if st.weight > 3*st.n || st.n < 3 {
		return false
	}
	if nu == st.n {
		return true
	}
	// Larger nodes tolerate one repeated value.
	return st.n >= 6 && nu >= st.n-1
}

// saturation computes s(C) per Eq. 3 under the interpretation documented in
// DESIGN.md §2.2, which reproduces every value of Fig. 5 and the Table-4
// refinement behaviour. Positions are classified:
//
//   - constant: n_u = 1;
//   - declared variable: statistically variable (n_u ≥ 8 and ≥ n/2) —
//     the "likely variables" of §4.5 — or, in small nodes without any
//     ambiguous position, fully distinct (n_u = n, n ≥ 3, the Fig.-5
//     Set-1 case);
//   - ambiguous: everything else — a mid-cardinality position that could
//     be a pooled variable or a categorical constant; only further
//     splitting (Table 4: name → android, ws → null) can tell.
//
// Then with resolved = constants + declared:
//
//	f_c = resolved/m
//	f_v = min_i ln(n_u(i))/ln(n)   over unresolved positions
//	p_c = 1/2^(m−resolved−1)       confidence in the unresolved evidence
//	s   = (f_v·p_c + (1−p_c)) · f_c
//
// and s = 1 when nothing is unresolved (or the node has ≤ 1 member).
// Fully-distinct positions are suspended from declaration when ambiguous
// positions coexist — Fig. 5 Set 2's point that apparent variables may be
// structurally correlated with unresolved structure.
func (st *posStats) saturation(o *Options) float64 {
	m := st.positions()
	if st.n <= 1 || m == 0 {
		return 1
	}
	noVar := o != nil && o.NoVariableSaturation
	semantic := o != nil && o.SemanticHints
	constants := 0
	declared := 0
	fullyDistinct := 0
	ambiguous := 0
	for i, d := range st.distinct {
		nu := int(d)
		switch {
		case nu == 1:
			constants++
		case st.declaredVariable(i, semantic):
			declared++
		case st.fullyDistinctVariable(nu):
			fullyDistinct++
		default:
			ambiguous++
		}
	}
	if noVar {
		// Ablation: only confirmed constants count (s = f_c).
		return float64(constants) / float64(m)
	}
	resolved := constants + declared
	if ambiguous == 0 {
		resolved += fullyDistinct
	}
	if resolved == m {
		return 1
	}
	// Unresolved = ambiguous plus any suspended fully-distinct positions.
	// The variability scale divides by the *total* (duplicate-weighted)
	// log count, per the paper's "let n be the total number of logs": a
	// position with six values over six barely-duplicated logs is highly
	// variable, the same six values over six hundred logs are categorical.
	minFv := math.Inf(1)
	logN := math.Log(float64(st.weight))
	for i, d := range st.distinct {
		nu := int(d)
		if nu == 1 || st.declaredVariable(i, semantic) {
			continue
		}
		if logN > 0 {
			fv := math.Log(float64(nu)) / logN
			if fv < minFv {
				minFv = fv
			}
		}
	}
	fc := float64(resolved) / float64(m)
	fv := minFv
	if math.IsInf(fv, 1) {
		fv = 0
	}
	if fv > 1 {
		fv = 1
	}
	if o != nil && o.NoConfidenceFactor {
		return fv * fc
	}
	pc := math.Pow(2, -float64(m-resolved-1))
	return (fv*pc + (1 - pc)) * fc
}

// template renders the node template: constant positions keep their token,
// all others become the wildcard.
func (st *posStats) template() []string {
	t := make([]string, st.positions())
	for i, nu := range st.distinct {
		if nu == 1 {
			t[i] = st.rep[i]
		} else {
			t[i] = Wildcard
		}
	}
	return t
}

// unresolvedPositions returns the indices with more than one distinct
// token.
func (st *posStats) unresolvedPositions() []int {
	var idx []int
	for i, nu := range st.distinct {
		if nu > 1 {
			idx = append(idx, i)
		}
	}
	return idx
}
