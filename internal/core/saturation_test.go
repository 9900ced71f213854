package core

import (
	"math"
	"math/rand"
	"testing"

	"bytebrain/internal/dedup"
	"bytebrain/internal/encode"
)

// statsOf codes members and returns their statistics, typed evidence
// included.
func statsOf(members []*dedup.Unique) *posStats {
	return newPosStats(codeMembers(members, true))
}

// similarityTo returns the Eq. 2 similarity of probe to the cluster of
// members, coding the probe alongside them.
func similarityTo(members []*dedup.Unique, probe *dedup.Unique, noPositionImportance bool) float64 {
	cs := codeMembers(append(append([]*dedup.Unique(nil), members...), probe), false)
	st := emptyStats(cs)
	for j := range members {
		st.count(cs, j)
	}
	st.weigh(noPositionImportance)
	return st.similarity(cs.row(len(members)))
}

func uniq(tokens ...string) *dedup.Unique {
	return &dedup.Unique{
		Tokens: tokens,
		Enc:    encode.HashEncoder{}.Encode(nil, tokens),
		Count:  1,
	}
}

// Fig. 5, Set 1: "UserService createUser token=<v> success" with three token
// values. The only unresolved position is the token value, so the node is
// fully resolved (saturation 1.0 as printed in the figure).
func fig5Set1() []*dedup.Unique {
	return []*dedup.Unique{
		uniq("UserService", "createUser", "token", "abc123", "success"),
		uniq("UserService", "createUser", "token", "xyz789", "success"),
		uniq("UserService", "createUser", "token", "def456", "success"),
	}
}

// Fig. 5, Set 2: action and status vary alongside the token value.
func fig5Set2() []*dedup.Unique {
	return []*dedup.Unique{
		uniq("UserService", "createUser", "token", "abc123", "success"),
		uniq("UserService", "deleteUser", "token", "xyz789", "failed"),
		uniq("UserService", "queryUser", "token", "def456", "success"),
	}
}

func TestSaturationFig5Set1(t *testing.T) {
	st := statsOf(fig5Set1())
	if got := st.saturation(&Options{}); got != 1.0 {
		t.Errorf("Set 1 saturation = %v, want 1.0 (single unresolved position is a declared variable)", got)
	}
}

func TestSaturationFig5Set2Root(t *testing.T) {
	st := statsOf(fig5Set2())
	got := st.saturation(&Options{})
	// f_c = 2/5, f_v = min(1, 1, ln2/ln3) = 0.6309, p_c = 1/4:
	// s = (0.6309·0.25 + 0.75)·0.4 = 0.3631 — printed as 0.4 in Fig. 5.
	want := (math.Log(2)/math.Log(3)*0.25 + 0.75) * 0.4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Set 2 saturation = %v, want %v", got, want)
	}
	if math.Abs(got-0.4) > 0.05 {
		t.Errorf("Set 2 saturation = %v, too far from the figure's 0.4", got)
	}
}

func TestSaturationFig5Subset46(t *testing.T) {
	// {4,6}: createUser/queryUser and abc123/def456 vary, status constant.
	st := statsOf([]*dedup.Unique{
		uniq("UserService", "createUser", "token", "abc123", "success"),
		uniq("UserService", "queryUser", "token", "def456", "success"),
	})
	got := st.saturation(&Options{})
	// Both unresolved positions fully distinct → f_v = 1 → s = f_c = 0.6,
	// exactly the figure's printed value.
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("{4,6} saturation = %v, want 0.6", got)
	}
}

func TestSaturationSingletonIsOne(t *testing.T) {
	st := statsOf([]*dedup.Unique{uniq("UserService", "deleteUser", "token", "xyz789", "failed")})
	if got := st.saturation(&Options{}); got != 1.0 {
		t.Errorf("singleton saturation = %v, want 1.0", got)
	}
}

func TestSaturationAllConstantIsOne(t *testing.T) {
	st := statsOf([]*dedup.Unique{
		uniq("a", "b"), uniq("a", "b"),
	})
	if got := st.saturation(&Options{}); got != 1.0 {
		t.Errorf("all-constant saturation = %v, want 1.0", got)
	}
}

func TestSaturationNoConstantsIsZero(t *testing.T) {
	// f_c = 0 forces s = 0 regardless of variability.
	st := statsOf([]*dedup.Unique{
		uniq("a", "x"), uniq("b", "y"), uniq("a", "z"),
	})
	got := st.saturation(&Options{})
	if got != 0 {
		t.Errorf("saturation = %v, want 0 when no position is constant", got)
	}
}

func TestSaturationAblationVariants(t *testing.T) {
	members := fig5Set2()
	st := statsOf(members)
	base := st.saturation(&Options{})

	noVar := st.saturation(&Options{NoVariableSaturation: true})
	if noVar != 0.4 {
		t.Errorf("NoVariableSaturation = %v, want f_c = 0.4", noVar)
	}
	noConf := st.saturation(&Options{NoConfidenceFactor: true})
	wantNoConf := math.Log(2) / math.Log(3) * 0.4
	if math.Abs(noConf-wantNoConf) > 1e-12 {
		t.Errorf("NoConfidenceFactor = %v, want f_v·f_c = %v", noConf, wantNoConf)
	}
	if base == noVar || base == noConf {
		t.Error("ablation variants did not change the score")
	}
}

func TestSaturationInUnitInterval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(12)
		m := 1 + r.Intn(6)
		members := make([]*dedup.Unique, n)
		for i := range members {
			toks := make([]string, m)
			for j := range toks {
				toks[j] = vocab[r.Intn(len(vocab))]
			}
			members[i] = uniq(toks...)
		}
		for _, o := range []*Options{
			{}, {NoVariableSaturation: true}, {NoConfidenceFactor: true},
		} {
			s := statsOf(members).saturation(o)
			if s < 0 || s > 1 {
				t.Fatalf("saturation %v out of [0,1] (opts %+v)", s, o)
			}
		}
	}
}

func TestSimilarityProperties(t *testing.T) {
	members := fig5Set2()
	for _, u := range members {
		sim := similarityTo(members, u, false)
		if sim <= 0 || sim > 1 {
			t.Errorf("member similarity %v out of (0,1]", sim)
		}
	}
	// A log sharing only the constant positions scores lower than a
	// member but higher than a completely alien log.
	partial := uniq("UserService", "dropUser", "token", "zzz", "pending")
	alien := uniq("x", "y", "z", "w", "v")
	sp := similarityTo(members, partial, false)
	sa := similarityTo(members, alien, false)
	sm := similarityTo(members, members[0], false)
	if !(sm > sp && sp > sa) {
		t.Errorf("similarity ordering broken: member %v, partial %v, alien %v", sm, sp, sa)
	}
	if sa != 0 {
		t.Errorf("alien similarity = %v, want 0", sa)
	}
}

func TestSimilarityPositionImportance(t *testing.T) {
	// One cluster with a stable position 0 and a noisy position 1. A
	// probe agreeing on the stable position must beat a probe agreeing
	// on the noisy position by a wider margin when importance weighting
	// is on.
	members := []*dedup.Unique{
		uniq("op", "x1"), uniq("op", "x2"), uniq("op", "x3"),
	}
	agreeStable := uniq("op", "zzz")
	agreeNoisy := uniq("other", "x1")
	withW := similarityTo(members, agreeStable, false) - similarityTo(members, agreeNoisy, false)
	withoutW := similarityTo(members, agreeStable, true) - similarityTo(members, agreeNoisy, true)
	if withW <= withoutW {
		t.Errorf("position importance did not emphasize stable positions: with=%v without=%v", withW, withoutW)
	}
}

func TestSimilarityLengthMismatchIsZero(t *testing.T) {
	st := statsOf(fig5Set1())
	st.weigh(false)
	if got := st.similarity(make([]int32, 2)); got != 0 {
		t.Errorf("similarity across lengths = %v, want 0", got)
	}
}

func TestTemplateRendering(t *testing.T) {
	st := statsOf(fig5Set2())
	tmpl := st.template()
	want := []string{"UserService", Wildcard, "token", Wildcard, Wildcard}
	for i := range want {
		if tmpl[i] != want[i] {
			t.Errorf("template[%d] = %q, want %q", i, tmpl[i], want[i])
		}
	}
}

func TestUnresolvedPositions(t *testing.T) {
	st := statsOf(fig5Set2())
	got := st.unresolvedPositions()
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("unresolved = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unresolved = %v, want %v", got, want)
		}
	}
}

// TestPosStatsMatchReferenceCount checks the array-coded statistics, for
// a root coding and for subsets derived from it, against a direct count
// of token strings per position: the distinct counts, the saturation
// they imply, and the Eq. 2 similarity of every member, bit for bit.
func TestPosStatsMatchReferenceCount(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vocab := []string{"a", "b", "c", "7", "x9", "/p", "d", "e"}
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(24)
		m := r.Intn(6)
		members := make([]*dedup.Unique, n)
		for j := range members {
			toks := make([]string, m)
			for i := range toks {
				toks[i] = vocab[r.Intn(1+r.Intn(len(vocab)))]
			}
			members[j] = uniq(toks...)
			members[j].Count = 1 + r.Intn(4)
		}
		root := codeMembers(members, true)
		var idx []int32
		for j := range members {
			if r.Intn(2) == 0 {
				idx = append(idx, int32(j))
			}
		}
		if len(idx) == 0 {
			idx = []int32{0}
		}
		for _, cs := range []*coding{root, root.subset(idx)} {
			checkAgainstReference(t, cs, m)
		}
		for s, v := range root.remap {
			if v != -1 {
				t.Fatalf("subset left remap[%d] = %d", s, v)
			}
		}
	}
}

func checkAgainstReference(t *testing.T, cs *coding, m int) {
	t.Helper()
	ref := make([]map[string]int, m)
	want := &posStats{distinct: make([]int32, m), typed: make([]int32, m), rep: cs.members[0].Tokens}
	for i := range ref {
		ref[i] = map[string]int{}
	}
	for _, u := range cs.members {
		for i, tok := range u.Tokens {
			ref[i][tok]++
			if typedToken(tok) {
				want.typed[i]++
			}
		}
		want.n++
		want.weight += u.Count
	}
	for i := range ref {
		want.distinct[i] = int32(len(ref[i]))
	}
	st := newPosStats(cs)
	for i := range ref {
		if st.distinct[i] != want.distinct[i] || st.typed[i] != want.typed[i] {
			t.Fatalf("position %d: distinct %d typed %d, reference %d %d",
				i, st.distinct[i], st.typed[i], want.distinct[i], want.typed[i])
		}
	}
	if st.n != want.n || st.weight != want.weight {
		t.Fatalf("n/weight %d/%d, reference %d/%d", st.n, st.weight, want.n, want.weight)
	}
	for _, o := range []*Options{{}, {SemanticHints: true}, {NoConfidenceFactor: true}} {
		if got, exp := st.saturation(o), want.saturation(o); got != exp {
			t.Fatalf("saturation %v, reference %v (opts %+v)", got, exp, o)
		}
	}
	for _, noPos := range []bool{false, true} {
		st.weigh(noPos)
		for j, u := range cs.members {
			var num, den float64
			for i, tok := range u.Tokens {
				w := 1.0
				if !noPos {
					d := float64(len(ref[i])) - 1
					if d < 0.5 {
						d = 0.5
					}
					w = 1 / d
				}
				f := float64(ref[i][tok]) * (1.0 / float64(len(cs.members)))
				num += w * f
				den += w
			}
			exp := 0.0
			if den != 0 {
				exp = num / den
			}
			if got := st.similarity(cs.row(j)); got != exp {
				t.Fatalf("member %d similarity %v, reference %v", j, got, exp)
			}
		}
	}
}

func TestSemanticHintsDeclareTypedPositions(t *testing.T) {
	// A sparse group: only 4 distinct numeric values across 4 logs with
	// duplicates — too little statistical evidence, but the tokens are
	// all typed (digits). With hints the position resolves; without, it
	// stays ambiguous.
	members := []*dedup.Unique{
		{Tokens: []string{"req", "took", "412ms"}, Enc: encode.HashEncoder{}.Encode(nil, []string{"req", "took", "412ms"}), Count: 10},
		{Tokens: []string{"req", "took", "7ms"}, Enc: encode.HashEncoder{}.Encode(nil, []string{"req", "took", "7ms"}), Count: 10},
		{Tokens: []string{"req", "took", "93ms"}, Enc: encode.HashEncoder{}.Encode(nil, []string{"req", "took", "93ms"}), Count: 10},
		{Tokens: []string{"req", "took", "1ms"}, Enc: encode.HashEncoder{}.Encode(nil, []string{"req", "took", "1ms"}), Count: 10},
	}
	st := statsOf(members)
	plain := st.saturation(&Options{})
	hinted := st.saturation(&Options{SemanticHints: true})
	if hinted != 1.0 {
		t.Errorf("hinted saturation = %v, want 1.0 (typed position declared)", hinted)
	}
	if plain >= hinted {
		t.Errorf("hints did not help: plain %v, hinted %v", plain, hinted)
	}
}

func TestSemanticHintsIgnoreWordPositions(t *testing.T) {
	// Categorical word positions gain nothing from hints: no digits.
	members := []*dedup.Unique{
		uniq("op", "start"), uniq("op", "stop"), uniq("op", "start"),
	}
	st := statsOf(members)
	a := st.saturation(&Options{})
	b := st.saturation(&Options{SemanticHints: true})
	if a != b {
		t.Errorf("hints changed word-position saturation: %v vs %v", a, b)
	}
}

func TestFig5UnaffectedBySemanticHints(t *testing.T) {
	// The Fig. 5 sets contain typed token values; the hinted variant may
	// legitimately resolve them earlier, but the DEFAULT path must keep
	// the paper's exact numbers (guarded elsewhere); here we pin that
	// hints are off by default.
	st := statsOf(fig5Set2())
	if got := st.saturation(nil); got >= 0.4 {
		t.Errorf("default saturation drifted: %v", got)
	}
}
