// Package vars implements common variable replacement (§4.1.2 of the paper).
//
// Before tokenization-independent clustering, obviously-variable substrings
// (timestamps, IP addresses, hashes, UUIDs, …) are replaced with a wildcard.
// Early replacement of these known variables shrinks the distinct-token
// universe, increases duplication (Fig. 4), and removes noise the clustering
// would otherwise have to discover per position.
//
// A Replacer applies an ordered rule list. The default rule set mirrors the
// per-topic defaults the paper describes; callers add domain-specific rules
// per topic with Add.
//
// The built-in rules run as hand-written byte scanners (scan.go) that
// report exactly the matches of their documented regular expressions,
// which the tests use as the oracle. Only rules added with Add, or built
// by the caller, run through regexp.
package vars

import (
	"regexp"
	"strings"
)

// Wildcard is the placeholder substituted for matched variables. It is the
// same wildcard used in template text, so a replaced variable and a
// cluster-derived variable render identically.
const Wildcard = "<*>"

// Sentinel is the token-safe stand-in ReplaceTokenSafe substitutes for
// variables. Wildcard itself contains tokenizer delimiters ('<', '>') and
// would be shredded by Listing-1 tokenization; the sentinel is a control
// byte no tokenizer treats as a delimiter. Pipelines tokenize the
// sentinel-substituted line and then canonicalize sentinel-bearing tokens
// back to Wildcard (see CanonicalizeTokens).
const Sentinel = "\x01"

// Rule is a single named replacement pattern.
type Rule struct {
	// Name identifies the rule (e.g. "ipv4") in diagnostics.
	Name string
	// Pattern matches the variable occurrences to replace. For a rule
	// from DefaultRules it documents the built-in scanner, which
	// replaces exactly its matches.
	Pattern *regexp.Regexp
	// match is the built-in scanner's match function (see scan.go); nil
	// for custom rules, which run Pattern.
	match func(s string, p int) int
}

// Replacer applies an ordered list of rules to log lines. It is safe for
// concurrent use after construction.
type Replacer struct {
	rules []Rule
}

// NewReplacer returns a Replacer with the given rules, applied in order.
func NewReplacer(rules ...Rule) *Replacer {
	return &Replacer{rules: rules}
}

// Default returns the paper's default rule set: timestamps, IP addresses
// (with optional port), MD5/SHA-style hex digests, UUIDs, and 0x-prefixed
// hex literals.
func Default() *Replacer { return NewReplacer(DefaultRules()...) }

// None returns a Replacer that performs no substitutions. Useful for
// ablations that measure the value of variable replacement (Fig. 4).
func None() *Replacer { return &Replacer{} }

// DefaultRules returns copies of the built-in rules in application order.
// Order matters: longer, more specific patterns run first so that e.g. a
// UUID is not half-eaten by the hex rule. The built-in rules skip lines
// without an ASCII digit: the timestamp and IPv4 patterns need one, and a
// hex value spelled with letters only (a digest, UUID, MAC or IPv6
// address) is too rare to scan every pure-text line for.
func DefaultRules() []Rule {
	return []Rule{
		{"iso-timestamp", regexp.MustCompile(`\b\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?\b`), matchISOTimestamp},
		{"slash-date-time", regexp.MustCompile(`\b\d{2,4}[/.]\d{2}[/.]\d{2,4}[ T]\d{2}:\d{2}:\d{2}\b`), matchSlashDateTime},
		{"clock-time", regexp.MustCompile(`\b\d{2}:\d{2}:\d{2}(?:[.,]\d+)?\b`), matchClockTime},
		{"uuid", regexp.MustCompile(`\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b`), matchUUID},
		{"ipv6", regexp.MustCompile(`\b(?:[0-9a-fA-F]{1,4}:){3,7}[0-9a-fA-F]{1,4}\b`), matchIPv6},
		{"ipv4-port", regexp.MustCompile(`\b(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?\b`), matchIPv4Port},
		{"long-hex", regexp.MustCompile(`\b(?:0x[0-9a-fA-F]+|[0-9a-fA-F]{32,64})\b`), matchLongHex},
		{"mac-address", regexp.MustCompile(`\b(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b`), matchMAC},
	}
}

// Add appends a domain-specific rule compiled from pattern and returns the
// receiver for chaining. It panics if pattern does not compile; topic
// configuration is static, so a bad pattern is a programming error.
// Custom rules may match digit-free text, so they run on every line.
func (r *Replacer) Add(name, pattern string) *Replacer {
	r.rules = append(r.rules, Rule{Name: name, Pattern: regexp.MustCompile(pattern)})
	return r
}

// Replace substitutes every rule match in line with Wildcard. Intended for
// human-facing output; parsing pipelines should use ReplaceTokenSafe so the
// substitution survives tokenization.
func (r *Replacer) Replace(line string) string { return r.replace(line, Wildcard) }

// ReplaceTokenSafe substitutes every rule match with Sentinel, which no
// tokenizer splits. Follow tokenization with CanonicalizeTokens.
func (r *Replacer) ReplaceTokenSafe(line string) string { return r.replace(line, Sentinel) }

// replace applies the rules in order, each to the output of the one
// before. The digit gate is decided once, on the input line.
func (r *Replacer) replace(line, placeholder string) string {
	if r == nil || len(r.rules) == 0 {
		return line
	}
	builtins := hasASCIIDigit(line)
	var buf [64]int32  // holds the word starts of a typical line without allocating
	var starts []int32 // word starts of line; nil when stale
	for i := range r.rules {
		rule := &r.rules[i]
		switch {
		case rule.match == nil:
			if rule.Pattern.MatchString(line) {
				line = rule.Pattern.ReplaceAllString(line, placeholder)
				starts = nil
			}
		case builtins:
			if starts == nil {
				starts = wordStarts(buf[:0], line)
			}
			if out, ok := replaceMatches(line, placeholder, starts, rule.match); ok {
				line = out
				starts = nil
			}
		}
	}
	return line
}

// replaceMatches replaces every match of a built-in rule, left to right
// and non-overlapping, as Pattern.ReplaceAllString would, given the word
// starts of line. It reports whether it replaced anything, and allocates
// only then.
func replaceMatches(line, placeholder string, starts []int32, match func(string, int) int) (string, bool) {
	var b strings.Builder
	found := false
	last := 0
	for _, p := range starts {
		if int(p) < last {
			continue
		}
		end := match(line, int(p))
		if end < 0 {
			continue
		}
		if !found {
			b.Grow(len(line))
			found = true
		}
		b.WriteString(line[last:p])
		b.WriteString(placeholder)
		last = end
	}
	if !found {
		return line, false
	}
	b.WriteString(line[last:])
	return b.String(), true
}

func hasASCIIDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// CanonicalizeTokens rewrites, in place, every token containing Sentinel to
// the Wildcard token and returns the slice. A token that mixes literal
// bytes with a replaced variable (e.g. "/" glued to an IP) collapses to the
// wildcard as a whole, matching how the paper's templates render such
// positions ("dest *").
func CanonicalizeTokens(tokens []string) []string {
	for i, t := range tokens {
		for j := 0; j < len(t); j++ {
			if t[j] == Sentinel[0] {
				tokens[i] = Wildcard
				break
			}
		}
	}
	return tokens
}

// Rules returns the replacement rules in application order.
func (r *Replacer) Rules() []Rule {
	out := make([]Rule, len(r.rules))
	copy(out, r.rules)
	return out
}
