package iputil

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR prefix: a base address and a mask length. The base
// is always kept canonical (host bits zero).
type Prefix struct {
	Base Addr
	Len  int
}

// MustParsePrefix parses CIDR notation and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation such as "10.0.0.0/8". The base address
// must be aligned to the prefix length.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("iputil: missing '/' in prefix %q", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("iputil: invalid prefix length in %q", s)
	}
	p := Prefix{Base: a, Len: n}
	if p.Base != p.Mask()&a {
		return Prefix{}, fmt.Errorf("iputil: %q has host bits set", s)
	}
	return p, nil
}

// PrefixOf returns the length-n prefix containing a.
func PrefixOf(a Addr, n int) Prefix {
	p := Prefix{Len: n}
	p.Base = a & p.Mask()
	return p
}

// Mask returns the netmask of the prefix as an address value.
func (p Prefix) Mask() Addr {
	if p.Len <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(p.Len)))
}

// Contains reports whether a lies within the prefix.
func (p Prefix) Contains(a Addr) bool { return a&p.Mask() == p.Base }

// ContainsPrefix reports whether q is entirely within p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return p.Len <= q.Len && p.Contains(q.Base)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// First returns the lowest address of the prefix.
func (p Prefix) First() Addr { return p.Base }

// Last returns the highest address of the prefix.
func (p Prefix) Last() Addr { return p.Base | ^p.Mask() }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() int {
	return 1 << (32 - uint(p.Len))
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(p.Len)
}

// Range is an inclusive span of addresses [Lo, Hi]. The paper represents
// each last-hop-router group by the range from its numerically smallest to
// largest member; the hierarchy test operates on these ranges.
type Range struct {
	Lo, Hi Addr
}

// RangeOf computes the enclosing range of a non-empty address set and
// panics if addrs is empty.
func RangeOf(addrs []Addr) Range {
	if len(addrs) == 0 {
		panic("iputil: RangeOf of empty set")
	}
	r := Range{Lo: addrs[0], Hi: addrs[0]}
	for _, a := range addrs[1:] {
		if a < r.Lo {
			r.Lo = a
		}
		if a > r.Hi {
			r.Hi = a
		}
	}
	return r
}

// Contains reports whether a lies within the range.
func (r Range) Contains(a Addr) bool { return r.Lo <= a && a <= r.Hi }

// ContainsRange reports whether s lies entirely within r.
func (r Range) ContainsRange(s Range) bool { return r.Lo <= s.Lo && s.Hi <= r.Hi }

// Disjoint reports whether the two ranges share no address.
func (r Range) Disjoint(s Range) bool { return r.Hi < s.Lo || s.Hi < r.Lo }

// Hierarchical reports whether the pair relationship is hierarchical in the
// paper's sense: mutually disjoint (siblings) or one includes the other
// (parent/child). A partially overlapping pair is non-hierarchical, which
// Hobbit interprets as evidence of load-balancing rather than distinct
// route entries.
func (r Range) Hierarchical(s Range) bool {
	return r.Disjoint(s) || r.ContainsRange(s) || s.ContainsRange(r)
}

// String renders the range as "lo-hi".
func (r Range) String() string { return r.Lo.String() + "-" + r.Hi.String() }

// EnclosingPrefix returns the smallest CIDR prefix that contains every
// address in the set; this is the "subnet whose network prefix is the
// longest common prefix of the addresses within the group" used by the
// aligned-groups heterogeneity criterion.
func EnclosingPrefix(addrs []Addr) Prefix {
	if len(addrs) == 0 {
		panic("iputil: EnclosingPrefix of empty set")
	}
	r := RangeOf(addrs)
	if r.Lo == r.Hi {
		return Prefix{Base: r.Lo, Len: 32}
	}
	n := bits.LeadingZeros32(uint32(r.Lo) ^ uint32(r.Hi))
	return PrefixOf(r.Lo, n)
}

// SortAddrs sorts a slice of addresses in ascending numeric order.
func SortAddrs(addrs []Addr) {
	slices.Sort(addrs)
}

// SortBlocks sorts a slice of /24 blocks in ascending numeric order.
func SortBlocks(blocks []Block24) {
	slices.Sort(blocks)
}
