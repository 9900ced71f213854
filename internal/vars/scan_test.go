package vars

import (
	"reflect"
	"strings"
	"testing"

	"bytebrain/internal/datagen"
)

// scanBoundaryCases are inputs at the edges of the scanners' fallbacks:
// fractions and zones followed by word bytes, IPv4 and IPv6 runs with too
// many groups or digits, hex runs either side of the long-hex bounds, 0x
// without hex, '_' against a match, the sentinel and non-ASCII bytes.
var scanBoundaryCases = []string{
	"",
	"2024-01-02T03:04:05Z done",
	"2024-01-02T03:04:05Zx",
	"2024-01-02T03:04:05Z_",
	"2024-01-02T03:04:05.123Zx",
	"2024-01-02 03:04:05.123+05:00 ok",
	"2024-01-02 03:04:05.123+05:00a",
	"2024-01-02T03:04:05+0530x",
	"2024-01-02T03:04:05+0530",
	"2024-01-02T03:04:05-05:3",
	"2024-01-02T03:04:05-05:30:",
	"2024-01-02T03:04:05,5_",
	"2024-01-02T03:04:05.",
	"2024-01-02T03:04:05.x",
	"2024-01-02T03:04:056",
	"12024-01-02T03:04:05",
	"12:34:56.789abc",
	"12:34:56.7_",
	"12:34:56,1,2",
	"12:34:567",
	"123:34:56",
	"x12:34:56",
	"17/06/09 20:10:40 INFO",
	"2017.06.09T20:10:40",
	"12345/06/09 20:10:40",
	"1/06/09 20:10:40",
	"17/06/09999 20:10:40",
	"17/06/09 20:10:401",
	"17/06/09  20:10:40",
	"1:2:3:4:5:6:7:8:9",
	"1:2:3:4:5:6:7:8",
	"a:b:c:d:e:f:a:b:c:d",
	"fe80::1 fe80:0:0:0:0:0:0:1",
	"1:2:3 1:2:3:4 1:2:3:4:",
	"12345:1:2:3:4",
	"1:2:3:abcde",
	"1:2:3:4:abcde",
	"1:2:3:4g",
	"1:2:3:4:5g",
	"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
	"1.2.3.4.5",
	"1.2.3.4:123456",
	"1.2.3.4:12345",
	"1.2.3.4:80x",
	"1.2.3.4:",
	"1.2.3.4_",
	"1234.1.1.1",
	"1.2.3.4567",
	"255.255.255.255:65535/tcp",
	"10.0.0.1:8080:9090",
	strings.Repeat("a", 31) + "1",
	strings.Repeat("a", 31),
	strings.Repeat("b", 31) + "1 " + strings.Repeat("c", 32),
	strings.Repeat("d", 63) + "1",
	strings.Repeat("e", 64) + "1",
	strings.Repeat("f", 65),
	strings.Repeat("0", 32) + "_",
	strings.Repeat("0", 32) + "g",
	"0x 0xg 0x_ 0x1g 0x1 0X1 00x1 0x" + strings.Repeat("a", 70),
	"x0x1 _0x1 0x1_",
	"_10.0.0.1 10.0.0.1_ _12:34:56",
	"\x0110.0.0.1\x01 a\x01b 12:00:00\x01",
	"é10.0.0.1 10.0.0.1é \xff12:34:56\xfe",
	"ü550e8400-e29b-41d4-a716-446655440000",
	"550e8400-e29b-41d4-a716-446655440000x",
	"550e8400-e29b-41d4-a716-4466554400001",
	"550e8400-e29b-41d4-a716-44665544000",
	"00:1a:2b:3c:4d:5e 00:1a:2b:3c:4d:5ex 00:1a:2b:3c:4d:5e:",
	"\x01 <*> 1.2.3.4 <*>:80",
}

// regexReplace is the reference Replacer: every rule through its regexp,
// with the built-in rules gated on a digit in the input line.
func regexReplace(rules []Rule, line, placeholder string) string {
	builtins := hasASCIIDigit(line)
	for _, rule := range rules {
		if rule.match != nil && !builtins {
			continue
		}
		line = rule.Pattern.ReplaceAllString(line, placeholder)
	}
	return line
}

// scanAll lists a built-in rule's matches in s the way
// FindAllStringIndex does: leftmost, non-overlapping, left to right.
func scanAll(rule *Rule, s string) [][]int {
	var out [][]int
	last := 0
	for _, p := range wordStarts(nil, s) {
		if int(p) < last {
			continue
		}
		if end := rule.match(s, int(p)); end >= 0 {
			out = append(out, []int{int(p), end})
			last = end
		}
	}
	return out
}

// defaultRules and defaultReplacer are compiled once for every check.
var (
	defaultRules    = DefaultRules()
	defaultReplacer = Default()
)

// checkScanners compares every built-in scanner with its regexp on line,
// and the Default replacer with the reference replacer for each
// placeholder.
func checkScanners(t *testing.T, line string) {
	t.Helper()
	for i := range defaultRules {
		rule := &defaultRules[i]
		got, want := scanAll(rule, line), rule.Pattern.FindAllStringIndex(line, -1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %q: scanner %v, regexp %v", rule.Name, line, got, want)
		}
	}
	for _, ph := range []string{Wildcard, Sentinel} {
		if got, want := defaultReplacer.replace(line, ph), regexReplace(defaultRules, line, ph); got != want {
			t.Fatalf("replace(%q, %q) = %q, reference %q", line, ph, got, want)
		}
	}
}

// datagenLines returns every line of every LogHub cut and of every
// LogHub-2.0 dataset at its smallest scale.
func datagenLines(t testing.TB) []string {
	var lines []string
	for _, name := range datagen.Names() {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ds.Lines...)
	}
	for _, name := range datagen.LogHub2Names() {
		ds, err := datagen.LogHub2(name, 1e-9, 2)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ds.Lines...)
	}
	return lines
}

// TestScannersMatchRegexpOnDatagen is the deterministic differential test
// over every distinct generated line. -short checks every eighth line,
// which keeps the regexp oracle cheap under the race detector.
func TestScannersMatchRegexpOnDatagen(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	seen := map[string]bool{}
	for i, line := range datagenLines(t) {
		if i%stride == 0 && !seen[line] {
			seen[line] = true
			checkScanners(t, line)
		}
	}
}

// FuzzDefaultRules checks the scanners against their regexps on random
// input; its seeds, run by every go test, are the boundary cases and a
// sample of every dataset.
func FuzzDefaultRules(f *testing.F) {
	for _, line := range scanBoundaryCases {
		f.Add(line)
	}
	lines := datagenLines(f)
	for i := 0; i < len(lines); i += 97 {
		f.Add(lines[i])
	}
	f.Fuzz(checkScanners)
}

func BenchmarkReplaceDefault(b *testing.B) {
	r := Default()
	lines := datagenLines(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			r.ReplaceTokenSafe(l)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
}
