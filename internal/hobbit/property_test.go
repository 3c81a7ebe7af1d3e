package hobbit

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// genGroups derives a grouping from fuzz input: each byte places one
// address (base + offset) into one of up to four groups.
func genGroups(raw []uint8) []Group {
	base := iputil.MustParseAddr("10.0.0.0")
	members := make([][]iputil.Addr, 4)
	for i, b := range raw {
		g := int(b) % 4
		members[g] = append(members[g], base+iputil.Addr(i%256))
	}
	var out []Group
	for g, addrs := range members {
		if len(addrs) > 0 {
			iputil.SortAddrs(addrs)
			out = append(out, Group{LastHop: iputil.Addr(0x64400000 + uint32(g)), Addrs: addrs})
		}
	}
	return out
}

// TestStopCheckMatchesSortedGroups pins the stop check's shortcut: on
// random observations (1 to 16 last hops, members drawn from one /24,
// in any order) the accumulator as it stands, in first-seen order with
// members unsorted, gives the same non-hierarchy verdict as the sorted
// groups, and groups() sorts it into exactly what a map keyed by last
// hop builds.
func TestStopCheckMatchesSortedGroups(t *testing.T) {
	const lastHopBase = iputil.Addr(0x64400000)
	base := iputil.MustParseAddr("10.0.0.0")
	f := func(hops uint8, raw []uint16) bool {
		k := 1 + int(hops)%16
		gm := groupMap{}
		byHop := map[iputil.Addr][]iputil.Addr{}
		for _, r := range raw {
			// High byte: the last hop; low byte: the member.
			lh := lastHopBase + iputil.Addr(int(r>>8)%k)
			dst := base + iputil.Addr(r&0xff)
			gm.add(lh, dst)
			byHop[lh] = append(byHop[lh], dst)
		}
		stop := NonHierarchical(gm)
		want := make([]Group, 0, len(byHop))
		for lh, addrs := range byHop {
			iputil.SortAddrs(addrs)
			want = append(want, Group{LastHop: lh, Addrs: addrs})
		}
		slices.SortFunc(want, func(a, b Group) int { return cmp.Compare(a.LastHop, b.LastHop) })
		got := gm.groups()
		return stop == NonHierarchical(got) && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNonHierarchicalOrderInvariant(t *testing.T) {
	f := func(raw []uint8) bool {
		groups := genGroups(raw)
		got := NonHierarchical(groups)
		// Reverse the group order: the verdict must not change.
		rev := make([]Group, len(groups))
		for i, g := range groups {
			rev[len(groups)-1-i] = g
		}
		return got == NonHierarchical(rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAlignedDisjointImpliesHierarchical(t *testing.T) {
	// The very-likely-heterogeneous criterion is a strict subset of
	// hierarchical relationships: a non-hierarchical grouping can never
	// be aligned-disjoint.
	f := func(raw []uint8) bool {
		groups := genGroups(raw)
		if _, ok := AlignedDisjoint(groups); ok && NonHierarchical(groups) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAlignedDisjointPrefixesDisjoint(t *testing.T) {
	// When the criterion fires, the returned sub-prefixes are pairwise
	// disjoint and each contains its own group's addresses.
	f := func(raw []uint8) bool {
		groups := genGroups(raw)
		subs, ok := AlignedDisjoint(groups)
		if !ok {
			return true
		}
		for i := 0; i < len(subs); i++ {
			for j := i + 1; j < len(subs); j++ {
				if subs[i].Overlaps(subs[j]) {
					return false
				}
			}
		}
		return len(subs) == len(groups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFewerThanFourAlwaysHierarchical(t *testing.T) {
	// Section 3.3: with fewer than 4 addresses any grouping is
	// hierarchical, so Hobbit requires at least 4 actives.
	f := func(raw []uint8) bool {
		if len(raw) > 3 {
			raw = raw[:3]
		}
		return !NonHierarchical(genGroups(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompositionSortedAndSized(t *testing.T) {
	f := func(raw []uint8) bool {
		groups := genGroups(raw)
		subs, ok := AlignedDisjoint(groups)
		if !ok {
			return true
		}
		comp := Composition(subs)
		if len(comp) != len(subs) {
			return false
		}
		for i := 1; i < len(comp); i++ {
			if comp[i] < comp[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
