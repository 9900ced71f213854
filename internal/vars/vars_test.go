package vars

import (
	"strings"
	"testing"
)

func TestDefaultReplacements(t *testing.T) {
	r := Default()
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"iso timestamp", "at 2025-04-12T08:31:02Z start", "at <*> start"},
		{"iso with millis", "ts=2025-04-12 08:31:02.123 ok", "ts=<*> ok"},
		{"slash date", "17/06/09 20:10:40 INFO", "<*> INFO"},
		{"bare clock", "up since 08:31:02 today", "up since <*> today"},
		{"ipv4", "from 10.250.19.102 accepted", "from <*> accepted"},
		{"ipv4 port", "dest: /10.250.19.102:50010 ok", "dest: /<*> ok"},
		{"uuid", "req 550e8400-e29b-41d4-a716-446655440000 done", "req <*> done"},
		{"md5", "digest d41d8cd98f00b204e9800998ecf8427e ok", "digest <*> ok"},
		{"0x hex", "flags 0xdeadbeef set", "flags <*> set"},
		{"mac", "dev 00:1a:2b:3c:4d:5e up", "dev <*> up"},
		{"plain text untouched", "nothing variable here", "nothing variable here"},
		{"short hex untouched", "code ab12 kept", "code ab12 kept"},
		{"version number untouched", "v1.2 kept", "v1.2 kept"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Replace(tt.in); got != tt.want {
				t.Errorf("Replace(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNoneReplacerIsIdentity(t *testing.T) {
	r := None()
	in := "at 2025-04-12T08:31:02Z from 10.0.0.1"
	if got := r.Replace(in); got != in {
		t.Errorf("None().Replace changed input: %q", got)
	}
}

func TestNilReplacerIsIdentity(t *testing.T) {
	var r *Replacer
	if got := r.Replace("x 10.0.0.1"); got != "x 10.0.0.1" {
		t.Errorf("nil Replacer changed input: %q", got)
	}
}

func TestAddCustomRule(t *testing.T) {
	r := None().Add("blk", `blk_-?\d+`)
	in := "Receiving block blk_-1608999687919862906 src"
	want := "Receiving block <*> src"
	if got := r.Replace(in); got != want {
		t.Errorf("Replace = %q, want %q", got, want)
	}
}

func TestAddPanicsOnBadPattern(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add did not panic on invalid pattern")
		}
	}()
	None().Add("bad", "(unclosed")
}

func TestRuleOrderUUIDBeforeHex(t *testing.T) {
	r := Default()
	got := r.Replace("id 550e8400-e29b-41d4-a716-446655440000 end")
	if strings.Count(got, Wildcard) != 1 {
		t.Errorf("UUID replaced in pieces: %q", got)
	}
}

func TestRulesReturnsCopy(t *testing.T) {
	r := Default()
	rules := r.Rules()
	if len(rules) == 0 {
		t.Fatal("no default rules")
	}
	rules[0] = Rule{}
	if r.Rules()[0].Name == "" {
		t.Error("mutating returned slice affected the replacer")
	}
}

func TestIncreasesDuplication(t *testing.T) {
	// The motivating property from Fig. 4: after replacement, lines that
	// differ only in variables collapse to identical strings.
	r := Default()
	a := r.Replace("conn from 10.0.0.1:5330 at 2025-01-01 10:00:00")
	b := r.Replace("conn from 192.168.7.9:1024 at 2025-03-05 23:59:59")
	if a != b {
		t.Errorf("variable-only differences survived: %q vs %q", a, b)
	}
}

func TestDigitPrefilterSkipsCleanLines(t *testing.T) {
	r := Default()
	// No digits → returned verbatim (prefilter path).
	in := "pure text line without numerals"
	if got := r.Replace(in); got != in {
		t.Errorf("digit-free line altered: %q", got)
	}
	// Custom rules are not gated: letter-only patterns must still fire.
	r2 := Default().Add("word", `\bsecret\b`)
	if got := r2.Replace("the secret word"); got != "the "+Wildcard+" word" {
		t.Errorf("custom rule suppressed by prefilter: %q", got)
	}
}

// TestRequiredBytePrefilterParity: for lines with and without the bytes
// each pattern needs (':' '-' '.'), the built-in scanners' output must
// equal applying every rule's regex unconditionally in order.
func TestRequiredBytePrefilterParity(t *testing.T) {
	r := Default()
	lines := []string{
		"2024-01-02T03:04:05Z request served",             // iso (has '-' and ':')
		"worker 17 done",                                  // digits, no ':' '-' '.'
		"connect 10.0.0.1:8080 ok",                        // ipv4-port
		"time 12:34:56 elapsed",                           // clock
		"id 123e4567-e89b-12d3-a456-426614174000 created", // uuid
		"deadbeef0deadbeefdeadbeefdeadbee checksum",       // long-hex, no req byte
		"mac 00:1a:2b:3c:4d:5e up",                        // mac
		"no variables at all here",
		"dash-but-no-digits stays",
	}
	for _, line := range lines {
		got := r.Replace(line)
		// Ground truth: every rule applied unconditionally, in order.
		want := line
		for _, rule := range r.Rules() {
			want = rule.Pattern.ReplaceAllString(want, Wildcard)
		}
		if got != want {
			t.Errorf("Replace(%q) = %q, want %q", line, got, want)
		}
	}
}

// TestCustomRuleLeavesBuiltinsGated: adding a custom rule must not change
// what the built-in rules replace. The digit gate applies to the built-in
// rules on every replacer that holds them, and never to custom rules.
func TestCustomRuleLeavesBuiltinsGated(t *testing.T) {
	digest := "checksum deadbeefdeadbeefdeadbeefdeadbeef ok"
	withCustom := Default().Add("custom", `zzz\d+`)
	if got := withCustom.Replace(digest); got != digest {
		t.Errorf("Default().Add(custom).Replace(%q) = %q, want it unchanged like Default()", digest, got)
	}
	if got := withCustom.Replace("id zzz42 at 10.0.0.1"); got != "id <*> at <*>" {
		t.Errorf("custom and built-in rules together: %q", got)
	}

	fromRules := NewReplacer(DefaultRules()...)
	for _, line := range append([]string{digest, "the secret word"}, scanBoundaryCases...) {
		if got, want := fromRules.Replace(line), Default().Replace(line); got != want {
			t.Errorf("NewReplacer(DefaultRules()...).Replace(%q) = %q, Default() gives %q", line, got, want)
		}
	}
}
