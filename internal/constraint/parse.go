package constraint

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"sqo/internal/predicate"
	"sqo/internal/value"
)

// Parse reads one constraint in the same textual form String renders:
//
//	c1: vehicle.desc = "refrigerated truck" [collects] -> cargo.desc = "frozen food"
//	c3: true [drives] -> driver.licenseClass >= vehicle.class
//	c6: cargo.desc = "frozen food" ∧ cargo.priority >= 2 -> cargo.quantity <= 500
//	s1: cargo.desc = "oil" -> cargo.priority >= 3 state-dependent doc "oil ships first"
//
// Antecedents are separated by "∧" or "&"; "true" denotes an empty
// antecedent list; the bracketed relationship list is optional. Optional
// notes follow the consequent in this order: "state-dependent", then "doc"
// and a quoted literal. They follow the arrow, so a Doc may hold ':', "->",
// '#' or '∧'.
func Parse(line string) (*Constraint, error) {
	c, err := parseLine(line)
	if err != nil {
		return nil, fmt.Errorf("constraint: parse %q: %w", strings.TrimSpace(line), err)
	}
	return c, nil
}

// ParseCatalog reads a whole catalog: one constraint per line, blank lines
// and lines starting with # ignored.
func ParseCatalog(text string) (*Catalog, error) {
	cat, err := NewCatalog()
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		c, err := Parse(trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if err := cat.Add(c); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	return cat, nil
}

func parseLine(line string) (*Constraint, error) {
	rest := strings.TrimSpace(line)

	// ID up to the first colon.
	colon := strings.IndexByte(rest, ':')
	if colon <= 0 {
		return nil, fmt.Errorf("missing 'id:' prefix")
	}
	id := strings.TrimSpace(rest[:colon])
	if strings.ContainsAny(id, " \t") {
		return nil, fmt.Errorf("malformed id %q", id)
	}
	rest = strings.TrimSpace(rest[colon+1:])

	// Split on the first implication arrow outside string literals.
	arrow := -1
	eachUnquoted(rest, func(i int, r rune) bool {
		if r == '-' && strings.HasPrefix(rest[i:], "->") {
			arrow = i
			return false
		}
		return true
	})
	if arrow < 0 {
		return nil, fmt.Errorf("missing '->'")
	}
	body := strings.TrimSpace(rest[:arrow])
	consText := strings.TrimSpace(rest[arrow+2:])
	if consText == "" {
		return nil, fmt.Errorf("missing consequent")
	}

	// Optional [links] suffix on the body; brackets inside string
	// literals do not count.
	var links []string
	if open, close, found, err := findLinkList(body); err != nil {
		return nil, err
	} else if found {
		for _, l := range strings.Split(body[open+1:close], ",") {
			l = strings.TrimSpace(l)
			if l != "" {
				links = append(links, l)
			}
		}
		body = strings.TrimSpace(body[:open])
	}

	// Antecedents: "true" or ∧/& separated predicates.
	var ants []predicate.Predicate
	if body != "true" && body != "" {
		for _, part := range splitAnd(body) {
			p, err := parsePredicate(part)
			if err != nil {
				return nil, err
			}
			ants = append(ants, p)
		}
	}

	// The consequent is the first three tokens; the notes follow it.
	fields := tokenizePredicate(consText)
	if len(fields) < 3 {
		return nil, fmt.Errorf("malformed predicate %q (want lhs op rhs)", consText)
	}
	cons, err := predicateOf(fields[:3])
	if err != nil {
		return nil, err
	}
	c := New(id, ants, links, cons)
	notes := fields[3:]
	if len(notes) > 0 && notes[0] == "state-dependent" {
		c.StateDependent, notes = true, notes[1:]
	}
	if len(notes) == 2 && notes[0] == "doc" {
		if c.Doc, err = strconv.Unquote(notes[1]); err != nil {
			return nil, fmt.Errorf("doc %s: %w", notes[1], err)
		}
		notes = nil
	}
	if len(notes) > 0 {
		return nil, fmt.Errorf("unexpected %q after the consequent", notes[0])
	}
	return c, nil
}

// eachUnquoted calls fn with the byte offset of every rune of s that lies
// outside a string literal, until fn returns false. Quotes themselves are
// not reported, and a backslash inside a literal escapes the next rune, so
// an escaped quote does not end the literal. Every split the parser makes —
// the arrow, the link list, the antecedent separators, the tokens — goes
// through this one scan, so a literal may hold any of them.
func eachUnquoted(s string, fn func(i int, r rune) bool) {
	inString, escaped := false, false
	for i, r := range s {
		switch {
		case escaped:
			escaped = false
		case inString && r == '\\':
			escaped = true
		case r == '"':
			inString = !inString
		case !inString && !fn(i, r):
			return
		}
	}
}

// findLinkList locates the last '[' … ']' pair outside string literals.
func findLinkList(body string) (open, close int, found bool, err error) {
	open, close = -1, -1
	eachUnquoted(body, func(i int, r rune) bool {
		switch r {
		case '[':
			open, close = i, -1
		case ']':
			close = i
		}
		return true
	})
	if open < 0 {
		return 0, 0, false, nil
	}
	if close < open {
		return 0, 0, false, fmt.Errorf("unterminated link list")
	}
	return open, close, true, nil
}

// splitAnd splits on "∧" or "&" outside of string literals.
func splitAnd(s string) []string {
	var parts []string
	start := 0
	eachUnquoted(s, func(i int, r rune) bool {
		if r == '∧' || r == '&' {
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + utf8.RuneLen(r)
		}
		return true
	})
	if t := strings.TrimSpace(s[start:]); t != "" {
		parts = append(parts, t)
	}
	return parts
}

// parsePredicate reads `class.attr op rhs` where rhs is a literal or another
// attribute reference.
func parsePredicate(s string) (predicate.Predicate, error) {
	s = strings.TrimSpace(s)
	fields := tokenizePredicate(s)
	if len(fields) != 3 {
		return predicate.Predicate{}, fmt.Errorf("malformed predicate %q (want lhs op rhs)", s)
	}
	return predicateOf(fields)
}

// predicateOf builds a predicate from its three tokens: lhs, op, rhs.
func predicateOf(fields []string) (predicate.Predicate, error) {
	lhsClass, lhsAttr, err := splitRef(fields[0])
	if err != nil {
		return predicate.Predicate{}, err
	}
	op, err := predicate.ParseOp(fields[1])
	if err != nil {
		return predicate.Predicate{}, err
	}
	rhs := fields[2]
	if isLiteral(rhs) {
		v, err := value.Parse(rhs)
		if err != nil {
			return predicate.Predicate{}, err
		}
		return predicate.Sel(lhsClass, lhsAttr, op, v), nil
	}
	rhsClass, rhsAttr, err := splitRef(rhs)
	if err != nil {
		return predicate.Predicate{}, err
	}
	return predicate.Join(lhsClass, lhsAttr, op, rhsClass, rhsAttr), nil
}

// tokenizePredicate splits "lhs op rhs" on whitespace outside quoted
// strings, so a quoted literal may hold spaces and escaped quotes.
func tokenizePredicate(s string) []string {
	var out []string
	start := 0
	eachUnquoted(s, func(i int, r rune) bool {
		if unicode.IsSpace(r) {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + utf8.RuneLen(r)
		}
		return true
	})
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// isLiteral reports whether a token reads as a constant rather than an
// attribute reference.
func isLiteral(tok string) bool {
	return tok != "" && (tok[0] == '"' || tok[0] == '-' || unicode.IsDigit(rune(tok[0])) ||
		tok == "true" || tok == "false")
}

// splitRef reads `class.attr`. A reference that reads as a literal ("0.5")
// or holds a quote is refused, so every reference String renders parses
// back as one.
func splitRef(s string) (class, attr string, err error) {
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 || strings.IndexByte(s[i+1:], '.') >= 0 ||
		isLiteral(s) || strings.ContainsRune(s, '"') {
		return "", "", fmt.Errorf("malformed attribute reference %q", s)
	}
	return s[:i], s[i+1:], nil
}
