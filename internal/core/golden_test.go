package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"bytebrain/internal/datagen"
)

// updateTrainDigest rewrites testdata/train_digest.golden from the
// current code. The golden pins trained output across refactors of the
// clustering internals, so regenerate it only for a change that is meant
// to alter what training produces.
var updateTrainDigest = flag.Bool("update-train-digest", false, "rewrite testdata/train_digest.golden")

const trainDigestPath = "testdata/train_digest.golden"

// trainDigestScale is the LogHub-2.0 scale of the golden inputs: 2 000 to
// about 8 300 lines per dataset.
const trainDigestScale = 0.0005

// trainDigestOptions are the option sets the golden covers: the default
// path plus every switch that changes how clustering reads the
// positional statistics.
var trainDigestOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"semantic", Options{SemanticHints: true}},
	{"nopos", Options{NoPositionImportance: true}},
	{"random-unbalanced", Options{RandomCentroids: true, NoBalancedGrouping: true}},
	{"noearlystop", Options{NoEarlyStop: true}},
	{"noincrease", Options{NoEnsureSaturationIncrease: true}},
}

// trainDigestInputs returns every datagen LogHub cut and every LogHub-2.0
// dataset at trainDigestScale, keyed "loghub/<name>" and "loghub2/<name>".
func trainDigestInputs(t testing.TB) ([]string, map[string][]string) {
	var keys []string
	lines := map[string][]string{}
	for _, name := range datagen.Names() {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, "loghub/"+name)
		lines["loghub/"+name] = ds.Lines
	}
	for _, name := range datagen.LogHub2Names() {
		ds, err := datagen.LogHub2(name, trainDigestScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, "loghub2/"+name)
		lines["loghub2/"+name] = ds.Lines
	}
	return keys, lines
}

// trainDigest hashes everything Train produces: each node's ID, parent,
// template, saturation bits, depth, count and weight in ID order, then
// the per-line assignment.
func trainDigest(res *TrainResult) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	m := res.Model
	put(uint64(len(m.Nodes)))
	for id := uint64(1); id < m.NextID; id++ {
		n, ok := m.Nodes[id]
		if !ok {
			continue
		}
		put(n.ID)
		put(n.Parent)
		put(uint64(len(n.Template)))
		for _, tok := range n.Template {
			put(uint64(len(tok)))
			h.Write([]byte(tok))
		}
		put(math.Float64bits(n.Saturation))
		put(uint64(n.Depth))
		put(uint64(n.Count))
		put(uint64(n.Weight))
	}
	put(uint64(len(res.Assign)))
	for _, id := range res.Assign {
		put(id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readTrainDigests(t *testing.T) map[string]string {
	f, err := os.Open(trainDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTrainDigestGolden pins trained output byte for byte: every node and
// every assignment, over every generated dataset and each option set that
// changes how clustering reads its statistics.
func TestTrainDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateTrainDigest {
		// The compiler fuses x*y + z into one rounding on arm64 and
		// other FMA targets, so saturations may differ in the last bit
		// from the amd64 build the golden was generated on.
		t.Skip("train digests are pinned for amd64")
	}
	keys, inputs := trainDigestInputs(t)
	var want map[string]string
	if !*updateTrainDigest {
		want = readTrainDigests(t)
	}
	var out strings.Builder
	out.WriteString("# SHA-256 of Train output per dataset/options; see golden_test.go.\n")
	for _, key := range keys {
		for _, oc := range trainDigestOptions {
			o := oc.opts
			o.Seed = 7
			res, err := New(o).Train(inputs[key])
			if err != nil {
				t.Fatalf("%s/%s: %v", key, oc.name, err)
			}
			id := key + "/" + oc.name
			got := trainDigest(res)
			fmt.Fprintf(&out, "%s %s\n", id, got)
			if want != nil && want[id] != got {
				t.Errorf("%s: digest %s, golden %s", id, got, want[id])
			}
		}
	}
	if want != nil && len(want) != len(keys)*len(trainDigestOptions) {
		t.Errorf("golden holds %d digests, test computes %d", len(want), len(keys)*len(trainDigestOptions))
	}
	if *updateTrainDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainDigestPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
