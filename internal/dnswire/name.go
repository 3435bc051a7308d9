package dnswire

import (
	"errors"
	"strings"
)

// Name is a fully-qualified domain name in canonical presentation form:
// lower-case, dot-separated labels with a trailing dot ("example.com.").
// The root zone is the single dot ".". Construct Names with ParseName (or
// MustParseName in tests and static data); the zero value "" is invalid.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Name parsing and validation errors.
var (
	ErrEmptyName    = errors.New("dnswire: empty domain name")
	ErrNameTooLong  = errors.New("dnswire: domain name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label in domain name")
	ErrBadLabelChar = errors.New("dnswire: invalid character in label")
)

// ParseName validates and canonicalizes s into a Name. It accepts names
// with or without a trailing dot, folds ASCII upper case to lower case,
// and enforces RFC 1035 length limits. Hostname character restrictions are
// deliberately not enforced beyond excluding dots, whitespace and control
// characters inside labels: DNS itself is 8-bit clean and the scanner
// encodes IPv4 addresses into labels.
func ParseName(s string) (Name, error) {
	if s == "" {
		return "", ErrEmptyName
	}
	if s == "." {
		return Root, nil
	}
	s = strings.TrimSuffix(s, ".")
	labels := strings.Split(s, ".")
	total := 1 // root label length octet
	var b strings.Builder
	b.Grow(len(s) + 1)
	for _, l := range labels {
		if err := writeLabel(&b, l); err != nil {
			return "", err
		}
		total += len(l) + 1
	}
	if total > MaxNameLen {
		return "", ErrNameTooLong
	}
	return Name(b.String()), nil
}

// writeLabel validates one dot-free label and writes it to b in
// canonical form: ASCII upper case folded, terminated by a dot.
func writeLabel(b *strings.Builder, l string) error {
	if l == "" {
		return ErrEmptyLabel
	}
	if len(l) > MaxLabelLen {
		return ErrLabelTooLong
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		if c <= ' ' || c == 127 {
			return ErrBadLabelChar
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	b.WriteByte('.')
	return nil
}

// MustParseName is ParseName for static data; it panics on invalid input.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic("dnswire: MustParseName(" + s + "): " + err.Error())
	}
	return n
}

// String returns the presentation form of the name.
func (n Name) String() string { return string(n) }

// Clone returns n as a string of its own, which a borrowed name
// (UnpackBorrowedInto) is not: code that keeps a name past its query
// keeps a clone.
func (n Name) Clone() Name { return Name(strings.Clone(string(n))) }

// Labels returns the labels of n from most- to least-specific, excluding
// the root. Labels(".") is empty.
func (n Name) Labels() []string {
	if n == Root || n == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// CountLabels returns the number of non-root labels in n.
func (n Name) CountLabels() int {
	if n == Root || n == "" {
		return 0
	}
	return strings.Count(string(n), ".")
}

// IsSubdomainOf reports whether n is equal to or below zone. Every name is
// a subdomain of the root.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone == Root {
		return true
	}
	// Below zone is zone's text after a dot that ends a label of n.
	cut := len(n) - len(zone)
	return cut == 0 && n == zone ||
		cut > 0 && n[cut-1] == '.' && n[cut:] == zone
}

// SLD returns the second-level domain of n ("www.cnn.com." → "cnn.com."),
// following the paper's definition of the two most senior labels. Names
// with fewer than two labels return themselves.
func (n Name) SLD() Name {
	labels := n.Labels()
	if len(labels) < 2 {
		return n
	}
	return Name(labels[len(labels)-2] + "." + labels[len(labels)-1] + ".")
}

// Prepend returns label + "." + n, validating the result: the same
// value and the same error as ParseName(label + "." + n). n is already
// canonical, so only label is checked and folded (by the rule ParseName
// applies to each of its labels) and the result is built once. A label
// that itself contains dots (or a root or zero parent) takes the long
// way through ParseName.
func (n Name) Prepend(label string) (Name, error) {
	if n == Root {
		return ParseName(label)
	}
	if n == "" || strings.IndexByte(label, '.') >= 0 {
		return ParseName(label + "." + string(n))
	}
	var b strings.Builder
	b.Grow(len(label) + 1 + len(n))
	if err := writeLabel(&b, label); err != nil {
		return "", err
	}
	if len(label)+1+n.wireLen() > MaxNameLen {
		return "", ErrNameTooLong
	}
	b.WriteString(string(n))
	return Name(b.String()), nil
}

// wireLen returns the uncompressed encoded length of n.
func (n Name) wireLen() int {
	if n == Root {
		return 1
	}
	return len(n) + 1
}
