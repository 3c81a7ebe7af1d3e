// Package trace defines the route representations shared by the prober and
// the Hobbit classifier: hops, paths, and sets of load-balanced paths, with
// the wildcard-aware comparison rules from Section 2.1 of the paper
// (unresponsive hops match any address) and the last-hop / sub-path / whole
// path metrics compared in Section 3.1.
package trace

import (
	"slices"
	"strconv"
	"strings"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Hop is one position in an IP-level route: either the address of the
// responding router interface, or an unresponsive hop ("*" in traceroute
// output) that acts as a wildcard in comparisons.
type Hop struct {
	Addr       iputil.Addr
	Responsive bool
}

// R is shorthand for a responsive hop, for fixtures and simulators.
func R(a iputil.Addr) Hop { return Hop{Addr: a, Responsive: true} }

// Star is the unresponsive wildcard hop.
var Star = Hop{}

// String renders the hop as traceroute would: the interface address, or "*".
func (h Hop) String() string {
	if !h.Responsive {
		return "*"
	}
	return h.Addr.String()
}

// Matches reports whether the two hops are compatible under the wildcard
// rule: any hop matches an unresponsive hop, and responsive hops match only
// if their addresses are equal.
func (h Hop) Matches(o Hop) bool {
	if !h.Responsive || !o.Responsive {
		return true
	}
	return h.Addr == o.Addr
}

// Path is an IP-level route: the sequence of router hops from (but not
// including) the source up to and including the destination's last-hop
// router. The destination itself is not part of the path.
type Path []Hop

// Equal reports exact hop-by-hop equality with no wildcard tolerance.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// MatchesWildcard reports whether two paths are considered identical under
// Section 2.1's rule: equal length, and every hop pair matches with
// unresponsive hops acting as wildcards.
func (p Path) MatchesWildcard(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !p[i].Matches(q[i]) {
			return false
		}
	}
	return true
}

// LastHop returns the destination's last-hop router, which is the final hop
// of the path. ok is false when the path is empty or the last hop did not
// respond (the paper's "Unresponsive last-hop" category).
func (p Path) LastHop() (iputil.Addr, bool) {
	if len(p) == 0 {
		return 0, false
	}
	h := p[len(p)-1]
	return h.Addr, h.Responsive
}

// Key returns a canonical string encoding usable as a map key. Wildcards
// are encoded distinctly from any address. The encoding is appended to a
// stack buffer so building a key costs one string allocation, not one per
// hop.
func (p Path) Key() string {
	var stack [128]byte
	buf := stack[:0]
	if n := len(p) * 9; n > len(stack) {
		buf = make([]byte, 0, n)
	}
	for i, h := range p {
		if i > 0 {
			buf = append(buf, ',')
		}
		if !h.Responsive {
			buf = append(buf, '*')
		} else {
			buf = strconv.AppendUint(buf, uint64(h.Addr), 16)
		}
	}
	return string(buf)
}

// String renders the path like a one-line traceroute.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, h := range p {
		parts[i] = h.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Links returns the router-level links (ordered hop pairs) present in the
// path, skipping pairs with an unresponsive endpoint. This is the unit
// counted by the topology-discovery experiment (Figure 11).
func (p Path) Links() []Link {
	var links []Link
	for i := 0; i+1 < len(p); i++ {
		if p[i].Responsive && p[i+1].Responsive {
			links = append(links, Link{From: p[i].Addr, To: p[i+1].Addr})
		}
	}
	return links
}

// Link is a directed router-level adjacency discovered by traceroute.
type Link struct {
	From, To iputil.Addr
}

// PathSet is the set of distinct routes observed toward one destination
// (the output of Paris-traceroute MDA, which enumerates per-flow
// load-balanced paths), in insertion order. The zero value is an empty
// set, and so, for reading, is a nil *PathSet: an MDA run that saw no
// router hop returns one without allocating.
type PathSet struct {
	paths []Path
}

// NewPathSet builds a set from the given paths, deduplicating exact
// duplicates.
func NewPathSet(paths ...Path) *PathSet {
	s := &PathSet{}
	for _, p := range paths {
		s.Add(p)
	}
	return s
}

// Add inserts a copy of p if an exactly equal path is not already present
// and reports whether it was inserted. Duplicates are found by scanning
// the set: it holds at most the flows one MDA run used, so the scan is
// short, and a duplicate costs no allocation.
func (s *PathSet) Add(p Path) bool {
	for _, q := range s.paths {
		if q.Equal(p) {
			return false
		}
	}
	s.paths = append(s.paths, p.Clone())
	return true
}

// Len returns the number of distinct paths.
func (s *PathSet) Len() int { return len(s.Paths()) }

// Paths returns the distinct paths. The returned slice must not be
// modified.
func (s *PathSet) Paths() []Path {
	if s == nil {
		return nil
	}
	return s.paths
}

// SharesRoute reports whether the two sets share at least one route, which
// is Section 2.1's criterion for two destinations having identical routes.
// If wildcard is true, unresponsive hops match any hop.
func (s *PathSet) SharesRoute(o *PathSet, wildcard bool) bool {
	for _, p := range s.Paths() {
		for _, q := range o.Paths() {
			if wildcard {
				if p.MatchesWildcard(q) {
					return true
				}
			} else if p.Equal(q) {
				return true
			}
		}
	}
	return false
}

// LastHops returns the set of distinct responsive last-hop routers across
// all paths, plus whether any path ended in an unresponsive hop.
func (s *PathSet) LastHops() (hops []iputil.Addr, anyUnresponsive bool) {
	for _, p := range s.Paths() {
		a, ok := p.LastHop()
		if !ok {
			anyUnresponsive = true
			continue
		}
		if !slices.Contains(hops, a) {
			hops = append(hops, a)
		}
	}
	iputil.SortAddrs(hops)
	return hops, anyUnresponsive
}

// CommonPrefixDepth returns the number of leading hops shared by every path
// in the union of the given sets, comparing responsive hops exactly. This
// locates "the routers that are common to all the destinations within /24
// and closest to the /24" for the sub-path metric of Figure 3b.
func CommonPrefixDepth(sets []*PathSet) int {
	var all []Path
	for _, s := range sets {
		all = append(all, s.Paths()...)
	}
	if len(all) == 0 {
		return 0
	}
	depth := 0
	for {
		if depth >= len(all[0]) {
			return depth
		}
		h := all[0][depth]
		for _, p := range all {
			if depth >= len(p) || p[depth] != h {
				return depth
			}
		}
		depth++
	}
}

// DeepestCommonDepth returns one past the deepest position at which every
// path in the union of the given sets carries the same responsive hop —
// i.e. the index where suffixes below "the router common to all the
// destinations and closest to the /24" begin. It returns 0 when no
// position is common.
func DeepestCommonDepth(sets []*PathSet) int {
	var all []Path
	minLen := -1
	for _, s := range sets {
		for _, p := range s.Paths() {
			all = append(all, p)
			if minLen < 0 || len(p) < minLen {
				minLen = len(p)
			}
		}
	}
	if len(all) == 0 {
		return 0
	}
	for pos := minLen - 1; pos >= 0; pos-- {
		h := all[0][pos]
		if !h.Responsive {
			continue
		}
		same := true
		for _, p := range all[1:] {
			if p[pos] != h {
				same = false
				break
			}
		}
		if same {
			return pos + 1
		}
	}
	return 0
}

// SubPathKey returns a canonical key for the path suffix starting at depth,
// used to count sub-path cardinality.
func SubPathKey(p Path, depth int) string {
	if depth >= len(p) {
		return ""
	}
	return Path(p[depth:]).Key()
}
