package vars

// Byte scanners for the built-in rules. Each match function is handed a
// position p that starts a word run (p == 0 or s[p-1] is not a word
// byte), which is exactly where the leading \b of every built-in pattern
// holds, and returns the end of the match the pattern's regexp would
// report starting at p, or -1. Trying the word starts left to right, and
// after a match only those at or past its end, gives the matches of
// FindAllStringIndex. "The match the regexp would report" is
// Go's leftmost-first choice: greedy quantifiers are tried longest
// first, and a shorter choice is taken only when the longer one fails the
// rest of the pattern, chiefly the trailing \b.
//
// \b in Go's regexp is an ASCII word boundary; bytes ≥ 0x80 (whole runes
// or invalid bytes) are never word characters, so testing bytes is exact.
// Every pattern starts with an ASCII character, and ASCII bytes always
// begin a rune, so match starts line up with the regexp's too.

const (
	classWord = 1 << iota
	classDigit
	classHex
)

var byteClass = func() (t [256]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = classWord | classDigit | classHex
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = classWord
		t[c-'a'+'A'] = classWord
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] |= classHex
		t[c-'a'+'A'] |= classHex
	}
	t['_'] = classWord
	return t
}()

func isWord(c byte) bool  { return byteClass[c]&classWord != 0 }
func isDigit(c byte) bool { return byteClass[c]&classDigit != 0 }
func isHex(c byte) bool   { return byteClass[c]&classHex != 0 }

// run returns the length of the run of bytes of the given class at s[i:].
func run(s string, i int, class uint8) int {
	n := i
	for n < len(s) && byteClass[s[n]]&class != 0 {
		n++
	}
	return n - i
}

// digits reports whether s[i:i+n] exists and is all ASCII digits.
func digits(s string, i, n int) bool {
	if i+n > len(s) {
		return false
	}
	for ; n > 0; n-- {
		if !isDigit(s[i]) {
			return false
		}
		i++
	}
	return true
}

// at reports whether s[i] exists and is c.
func at(s string, i int, c byte) bool { return i < len(s) && s[i] == c }

// endsWord reports whether \b holds at i when s[i-1] is a word byte.
func endsWord(s string, i int) bool { return i >= len(s) || !isWord(s[i]) }

// clock reports whether s[i:] starts with \d{2}:\d{2}:\d{2}.
func clock(s string, i int) bool {
	return digits(s, i, 2) && at(s, i+2, ':') && digits(s, i+3, 2) &&
		at(s, i+5, ':') && digits(s, i+6, 2)
}

// fraction returns the end of (?:[.,]\d+) with all its digits at s[q:],
// or -1.
func fraction(s string, q int) int {
	if q+1 < len(s) && (s[q] == '.' || s[q] == ',') && isDigit(s[q+1]) {
		return q + 1 + run(s, q+1, classDigit)
	}
	return -1
}

// wordStarts appends to dst the positions in s where a run of word bytes
// starts with a hex digit: the only places a built-in pattern's leading
// \b and first byte let a match begin.
func wordStarts(dst []int32, s string) []int32 {
	for i := 0; i < len(s); {
		if !isWord(s[i]) {
			i++
			continue
		}
		if isHex(s[i]) {
			dst = append(dst, int32(i))
		}
		for i++; i < len(s) && isWord(s[i]); i++ {
		}
	}
	return dst
}

// matchISOTimestamp:
// \d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?\b
func matchISOTimestamp(s string, p int) int {
	if !digits(s, p, 4) || !at(s, p+4, '-') || !digits(s, p+5, 2) ||
		!at(s, p+7, '-') || !digits(s, p+8, 2) ||
		!(at(s, p+10, 'T') || at(s, p+10, ' ')) || !clock(s, p+11) {
		return -1
	}
	q := p + 19
	if r := fraction(s, q); r >= 0 {
		if end := isoZone(s, r); end >= 0 {
			return end
		}
		// Shorter fractions end between two digits, where \b fails;
		// without the fraction, the separator at q is a boundary.
		return q
	}
	return isoZone(s, q)
}

// isoZone matches (?:Z|[+-]\d{2}:?\d{2})?\b at q, where s[q-1] is a
// digit, and returns the end or -1.
func isoZone(s string, q int) int {
	if q < len(s) {
		switch s[q] {
		case 'Z':
			if endsWord(s, q+1) {
				return q + 1
			}
		case '+', '-':
			if digits(s, q+1, 2) {
				if at(s, q+3, ':') && digits(s, q+4, 2) && endsWord(s, q+6) {
					return q + 6
				}
				if digits(s, q+3, 2) && endsWord(s, q+5) {
					return q + 5
				}
			}
		}
	}
	if endsWord(s, q) {
		return q
	}
	return -1
}

// matchSlashDateTime: \d{2,4}[/.]\d{2}[/.]\d{2,4}[ T]\d{2}:\d{2}:\d{2}\b
//
// Each \d{2,4} is followed by a non-digit, so only the whole digit run
// can satisfy it.
func matchSlashDateTime(s string, p int) int {
	n := run(s, p, classDigit)
	if n < 2 || n > 4 {
		return -1
	}
	i := p + n
	if !(at(s, i, '/') || at(s, i, '.')) || !digits(s, i+1, 2) ||
		!(at(s, i+3, '/') || at(s, i+3, '.')) {
		return -1
	}
	i += 4
	n = run(s, i, classDigit)
	if n < 2 || n > 4 {
		return -1
	}
	i += n
	if !(at(s, i, ' ') || at(s, i, 'T')) || !clock(s, i+1) || !endsWord(s, i+9) {
		return -1
	}
	return i + 9
}

// matchClockTime: \d{2}:\d{2}:\d{2}(?:[.,]\d+)?\b
func matchClockTime(s string, p int) int {
	if !clock(s, p) {
		return -1
	}
	q := p + 8
	if r := fraction(s, q); r >= 0 {
		if endsWord(s, r) {
			return r
		}
		return q
	}
	if endsWord(s, q) {
		return q
	}
	return -1
}

// matchUUID:
// [0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b
func matchUUID(s string, p int) int {
	end := p + 36
	if end > len(s) || !endsWord(s, end) {
		return -1
	}
	for i := p; i < end; i++ {
		switch i - p {
		case 8, 13, 18, 23:
			if s[i] != '-' {
				return -1
			}
		default:
			if !isHex(s[i]) {
				return -1
			}
		}
	}
	return end
}

// matchIPv6: (?:[0-9a-fA-F]{1,4}:){3,7}[0-9a-fA-F]{1,4}\b
//
// A group only matches a whole hex run of 1–4 followed by ':', so the
// groups available from p form one chain. The regexp takes up to seven of
// them, then wants a final hex run followed by a non-word byte. When the
// chain holds an eighth group, or the final run fails and a group can be
// given back, the last group's hex run ends the match: its ':' is a
// boundary.
func matchIPv6(s string, p int) int {
	i, groups, lastColon := p, 0, -1
	for groups < 8 {
		n := run(s, i, classHex)
		if n < 1 || n > 4 || !at(s, i+n, ':') {
			break
		}
		groups++
		lastColon = i + n
		i += n + 1
	}
	switch {
	case groups == 8:
		return lastColon
	case groups < 3:
		return -1
	}
	if n := run(s, i, classHex); n >= 1 && n <= 4 && endsWord(s, i+n) {
		return i + n
	}
	if groups > 3 {
		return lastColon
	}
	return -1
}

// matchIPv4Port: (?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?\b
func matchIPv4Port(s string, p int) int {
	i := p
	for k := 0; k < 3; k++ {
		n := run(s, i, classDigit)
		if n < 1 || n > 3 || !at(s, i+n, '.') {
			return -1
		}
		i += n + 1
	}
	n := run(s, i, classDigit)
	if n < 1 || n > 3 {
		return -1
	}
	i += n
	if at(s, i, ':') {
		if m := run(s, i+1, classDigit); m >= 1 && m <= 5 && endsWord(s, i+1+m) {
			return i + 1 + m
		}
		return i // without the port, the ':' is a boundary
	}
	if endsWord(s, i) {
		return i
	}
	return -1
}

// matchLongHex: (?:0x[0-9a-fA-F]+|[0-9a-fA-F]{32,64})\b
func matchLongHex(s string, p int) int {
	if s[p] == '0' && at(s, p+1, 'x') {
		if n := run(s, p+2, classHex); n > 0 && endsWord(s, p+2+n) {
			return p + 2 + n
		}
	}
	if n := run(s, p, classHex); n >= 32 && n <= 64 && endsWord(s, p+n) {
		return p + n
	}
	return -1
}

// matchMAC: (?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b
func matchMAC(s string, p int) int {
	end := p + 17
	if end > len(s) || !endsWord(s, end) {
		return -1
	}
	for i := p; i < end; i++ {
		if (i-p)%3 == 2 {
			if s[i] != ':' {
				return -1
			}
		} else if !isHex(s[i]) {
			return -1
		}
	}
	return end
}
