// Package hobbit implements the paper's primary contribution: the
// homogeneous block identification technique. Hobbit decides whether the
// addresses of a /24 block are topologically co-located by grouping them
// by last-hop router and testing whether the groups' address ranges are
// hierarchical (distinct route entries) or non-hierarchical (per-
// destination load balancing), with the destination-selection and
// termination strategies of Section 3.
package hobbit

import (
	"cmp"
	"slices"
	"sort"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Class is the Table 1 classification of one measured /24 block.
type Class int

// Block classifications. The first two are the "Not analyzable"
// categories; SameLastHop and NonHierarchical are homogeneous;
// Hierarchical is "different but hierarchical" (heterogeneous with ≤5%
// error at the default confidence).
const (
	ClassTooFewActive Class = iota
	ClassUnresponsiveLastHop
	ClassSameLastHop
	ClassNonHierarchical
	ClassHierarchical
)

// String renders the class as the paper's table rows.
func (c Class) String() string {
	switch c {
	case ClassTooFewActive:
		return "Too few active"
	case ClassUnresponsiveLastHop:
		return "Unresponsive last-hop"
	case ClassSameLastHop:
		return "Same last-hop router"
	case ClassNonHierarchical:
		return "Non-hierarchical"
	case ClassHierarchical:
		return "Different but hierarchical"
	default:
		return "Unknown"
	}
}

// MetricName renders the class as a snake_case telemetry metric segment
// (the display String above has spaces and capitals, which the
// stage.metric_name convention forbids).
func (c Class) MetricName() string {
	switch c {
	case ClassTooFewActive:
		return "too_few_active"
	case ClassUnresponsiveLastHop:
		return "unresponsive_last_hop"
	case ClassSameLastHop:
		return "same_last_hop"
	case ClassNonHierarchical:
		return "non_hierarchical"
	case ClassHierarchical:
		return "hierarchical"
	default:
		return "unknown"
	}
}

// Homogeneous reports whether the class counts as homogeneous.
func (c Class) Homogeneous() bool {
	return c == ClassSameLastHop || c == ClassNonHierarchical
}

// Analyzable reports whether the class carries a verdict at all.
func (c Class) Analyzable() bool {
	return c != ClassTooFewActive && c != ClassUnresponsiveLastHop
}

// Group is the set of probed addresses sharing one last-hop router.
type Group struct {
	LastHop iputil.Addr
	Addrs   []iputil.Addr
}

// Range returns the group's address range (numerically smallest to
// largest member), the representation the hierarchy test operates on.
func (g Group) Range() iputil.Range { return iputil.RangeOf(g.Addrs) }

// groupMap accumulates address → last-hop observations: one group per
// last hop, in first-seen order, with members in probing order. A /24
// has few last hops, so a linear scan finds one.
type groupMap []Group

func (m *groupMap) add(lastHop, dst iputil.Addr) {
	for i := range *m {
		if g := &(*m)[i]; g.LastHop == lastHop {
			g.Addrs = append(g.Addrs, dst)
			return
		}
	}
	*m = append(*m, Group{LastHop: lastHop, Addrs: []iputil.Addr{dst}})
}

// groups sorts the accumulator in place, by last-hop address with sorted
// members, and returns it as the block's Group records.
func (m groupMap) groups() []Group {
	for _, g := range m {
		iputil.SortAddrs(g.Addrs)
	}
	slices.SortFunc(m, func(a, b Group) int { return cmp.Compare(a.LastHop, b.LastHop) })
	return m
}

// NonHierarchical reports whether any pair of group ranges partially
// overlaps — the signature of per-destination load balancing rather than
// distinct route entries (Figure 2c). With fewer than four addresses in
// total the relationships are always hierarchical, so this cannot trigger.
// The test is symmetric and reads only ranges, so neither the order of
// the groups nor that of their members matters.
func NonHierarchical(groups []Group) bool {
	for i := 0; i < len(groups); i++ {
		ri := groups[i].Range()
		for j := i + 1; j < len(groups); j++ {
			if !ri.Hierarchical(groups[j].Range()) {
				return true
			}
		}
	}
	return false
}

// AlignedDisjoint implements the Section 4.2 "very likely heterogeneous"
// criterion: every pair of groups is disjoint (not inclusive), and each
// group's enclosing subnet — the prefix whose network bits are the longest
// common prefix of the group's addresses — contains no address of any
// other group. When the criterion holds it returns the sub-block prefixes
// sorted by base address.
func AlignedDisjoint(groups []Group) ([]iputil.Prefix, bool) {
	if len(groups) < 2 {
		return nil, false
	}
	prefixes := make([]iputil.Prefix, len(groups))
	for i, g := range groups {
		ri := g.Range()
		for j := i + 1; j < len(groups); j++ {
			if !ri.Disjoint(groups[j].Range()) {
				return nil, false
			}
		}
		prefixes[i] = iputil.EnclosingPrefix(g.Addrs)
	}
	// Alignment: no foreign address inside any group's subnet.
	for i, p := range prefixes {
		for j, g := range groups {
			if i == j {
				continue
			}
			for _, a := range g.Addrs {
				if p.Contains(a) {
					return nil, false
				}
			}
		}
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Base < prefixes[j].Base })
	return prefixes, true
}

// Composition returns the multiset of prefix lengths of the sub-blocks,
// sorted ascending — the rows of Table 2.
func Composition(prefixes []iputil.Prefix) []int {
	out := make([]int, len(prefixes))
	for i, p := range prefixes {
		out[i] = p.Len
	}
	sort.Ints(out)
	return out
}
