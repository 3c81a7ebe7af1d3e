package trace

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

func ip(s string) iputil.Addr { return iputil.MustParseAddr(s) }

func TestHopMatches(t *testing.T) {
	a := R(ip("10.0.0.1"))
	b := R(ip("10.0.0.2"))
	if a.Matches(b) {
		t.Error("distinct responsive hops should not match")
	}
	if !a.Matches(a) {
		t.Error("hop should match itself")
	}
	if !a.Matches(Star) || !Star.Matches(a) || !Star.Matches(Star) {
		t.Error("wildcard should match anything")
	}
	if a.String() != "10.0.0.1" || Star.String() != "*" {
		t.Errorf("String = %q / %q", a.String(), Star.String())
	}
}

func mkPath(hops ...string) Path {
	p := make(Path, len(hops))
	for i, h := range hops {
		if h == "*" {
			p[i] = Star
		} else {
			p[i] = R(ip(h))
		}
	}
	return p
}

func TestPathWildcardMatching(t *testing.T) {
	// The paper's example: <A, B, C>, <A, *, C> and <*, B, C> are all
	// considered identical.
	full := mkPath("1.1.1.1", "2.2.2.2", "3.3.3.3")
	midStar := mkPath("1.1.1.1", "*", "3.3.3.3")
	headStar := mkPath("*", "2.2.2.2", "3.3.3.3")
	other := mkPath("1.1.1.1", "9.9.9.9", "3.3.3.3")

	if !full.MatchesWildcard(midStar) || !full.MatchesWildcard(headStar) {
		t.Error("wildcard paths should match the full path")
	}
	if !midStar.MatchesWildcard(headStar) {
		t.Error("two wildcard paths should match")
	}
	if full.MatchesWildcard(other) {
		t.Error("paths differing at a responsive hop should not match")
	}
	if full.MatchesWildcard(mkPath("1.1.1.1", "2.2.2.2")) {
		t.Error("length mismatch should not match")
	}
	if full.Equal(midStar) {
		t.Error("Equal must be exact")
	}
	if !full.Equal(full.Clone()) {
		t.Error("clone should be Equal")
	}
}

func TestPathLastHop(t *testing.T) {
	if _, ok := (Path{}).LastHop(); ok {
		t.Error("empty path has no last hop")
	}
	if _, ok := mkPath("1.1.1.1", "*").LastHop(); ok {
		t.Error("unresponsive final hop should report !ok")
	}
	a, ok := mkPath("1.1.1.1", "2.2.2.2").LastHop()
	if !ok || a != ip("2.2.2.2") {
		t.Errorf("LastHop = %v, %v", a, ok)
	}
}

func TestPathKeyDistinguishesStar(t *testing.T) {
	// An unresponsive hop must not collide with address 0.0.0.0.
	zeroHop := Path{R(0)}
	star := Path{Star}
	if zeroHop.Key() == star.Key() {
		t.Error("wildcard key collides with 0.0.0.0")
	}
	if mkPath("1.1.1.1", "2.2.2.2").Key() == mkPath("1.1.1.1").Key() {
		t.Error("different lengths must have different keys")
	}
}

func TestPathString(t *testing.T) {
	got := mkPath("1.1.1.1", "*").String()
	if got != "<1.1.1.1, *>" {
		t.Errorf("String = %q", got)
	}
}

func TestPathLinks(t *testing.T) {
	p := mkPath("1.1.1.1", "2.2.2.2", "*", "4.4.4.4", "5.5.5.5")
	links := p.Links()
	want := []Link{
		{From: ip("1.1.1.1"), To: ip("2.2.2.2")},
		{From: ip("4.4.4.4"), To: ip("5.5.5.5")},
	}
	if len(links) != len(want) {
		t.Fatalf("Links = %v", links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Errorf("link %d = %v, want %v", i, links[i], want[i])
		}
	}
	if got := mkPath("1.1.1.1").Links(); got != nil {
		t.Errorf("single-hop path links = %v", got)
	}
}

func TestPathSetDedup(t *testing.T) {
	s := NewPathSet(mkPath("1.1.1.1"), mkPath("1.1.1.1"), mkPath("2.2.2.2"))
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Add(mkPath("2.2.2.2")) {
		t.Error("duplicate Add should report false")
	}
	if !s.Add(mkPath("3.3.3.3")) {
		t.Error("fresh Add should report true")
	}
}

func TestPathSetZeroValueAdd(t *testing.T) {
	var s PathSet
	if !s.Add(mkPath("1.1.1.1")) {
		t.Error("zero-value PathSet Add failed")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

// TestPathSetNilReads pins that a nil *PathSet, what an MDA run that saw
// no router hop returns, reads as an empty set.
func TestPathSetNilReads(t *testing.T) {
	var s *PathSet
	if s.Len() != 0 || s.Paths() != nil {
		t.Errorf("nil set: Len %d, Paths %v", s.Len(), s.Paths())
	}
	if hops, anyUnresp := s.LastHops(); hops != nil || anyUnresp {
		t.Errorf("nil set: LastHops = %v, %v", hops, anyUnresp)
	}
	full := NewPathSet(mkPath("1.1.1.1"))
	if s.SharesRoute(full, true) || full.SharesRoute(s, false) {
		t.Error("nil set shares a route")
	}
	if got := CommonPrefixDepth([]*PathSet{s, full}); got != 1 {
		t.Errorf("CommonPrefixDepth with a nil set = %d, want 1", got)
	}
	if got := DeepestCommonDepth([]*PathSet{s, full}); got != 1 {
		t.Errorf("DeepestCommonDepth with a nil set = %d, want 1", got)
	}
}

func TestSharesRoute(t *testing.T) {
	// The paper's false-difference example: A has {r1, r2}, B has {r2}.
	r1 := mkPath("1.1.1.1", "3.3.3.3")
	r2 := mkPath("2.2.2.2", "3.3.3.3")
	a := NewPathSet(r1, r2)
	b := NewPathSet(r2)
	if !a.SharesRoute(b, false) {
		t.Error("sets sharing r2 should share a route")
	}
	c := NewPathSet(mkPath("9.9.9.9", "3.3.3.3"))
	if a.SharesRoute(c, false) {
		t.Error("disjoint sets should not share a route")
	}
	// With wildcards, <*, 3.3.3.3> matches r1.
	d := NewPathSet(mkPath("*", "3.3.3.3"))
	if a.SharesRoute(d, false) {
		t.Error("exact comparison should reject wildcard path")
	}
	if !a.SharesRoute(d, true) {
		t.Error("wildcard comparison should accept wildcard path")
	}
}

func TestLastHops(t *testing.T) {
	s := NewPathSet(
		mkPath("1.1.1.1", "5.5.5.5"),
		mkPath("2.2.2.2", "5.5.5.5"),
		mkPath("2.2.2.2", "6.6.6.6"),
		mkPath("2.2.2.2", "*"),
	)
	hops, anyUnresp := s.LastHops()
	if !anyUnresp {
		t.Error("expected unresponsive last hop")
	}
	if len(hops) != 2 || hops[0] != ip("5.5.5.5") || hops[1] != ip("6.6.6.6") {
		t.Errorf("LastHops = %v", hops)
	}
}

func TestCommonPrefixDepth(t *testing.T) {
	a := NewPathSet(mkPath("1.1.1.1", "2.2.2.2", "3.3.3.3"))
	b := NewPathSet(mkPath("1.1.1.1", "2.2.2.2", "4.4.4.4"))
	if got := CommonPrefixDepth([]*PathSet{a, b}); got != 2 {
		t.Errorf("CommonPrefixDepth = %d, want 2", got)
	}
	c := NewPathSet(mkPath("9.9.9.9"))
	if got := CommonPrefixDepth([]*PathSet{a, c}); got != 0 {
		t.Errorf("CommonPrefixDepth disjoint = %d, want 0", got)
	}
	if got := CommonPrefixDepth(nil); got != 0 {
		t.Errorf("CommonPrefixDepth empty = %d", got)
	}
	// Identical sets: depth is the full length.
	if got := CommonPrefixDepth([]*PathSet{a, a}); got != 3 {
		t.Errorf("CommonPrefixDepth identical = %d, want 3", got)
	}
}

func TestDeepestCommonDepth(t *testing.T) {
	// Paths share a prefix, diverge at a flow diamond, reconverge at an
	// ingress, then diverge again toward last hops: the deepest common
	// hop is the ingress, not the (shallower) shared prefix.
	a := NewPathSet(
		mkPath("1.1.1.1", "2.2.2.2", "5.5.5.5", "7.7.7.7"),
		mkPath("1.1.1.1", "3.3.3.3", "5.5.5.5", "7.7.7.7"),
	)
	b := NewPathSet(
		mkPath("1.1.1.1", "2.2.2.2", "5.5.5.5", "8.8.8.8"),
		mkPath("1.1.1.1", "3.3.3.3", "5.5.5.5", "8.8.8.8"),
	)
	if got := DeepestCommonDepth([]*PathSet{a, b}); got != 3 {
		t.Errorf("DeepestCommonDepth = %d, want 3 (suffix after 5.5.5.5)", got)
	}
	// Within one set, the paths reconverge at the shared last hop
	// (position 3), so the whole length is common.
	if got := DeepestCommonDepth([]*PathSet{a, a}); got != 4 {
		t.Errorf("DeepestCommonDepth(identical set) = %d, want 4", got)
	}
	// Unresponsive hops never count as common.
	c := NewPathSet(mkPath("1.1.1.1", "*", "9.9.9.9"))
	d := NewPathSet(mkPath("1.1.1.1", "*", "6.6.6.6"))
	if got := DeepestCommonDepth([]*PathSet{c, d}); got != 1 {
		t.Errorf("DeepestCommonDepth with wildcard = %d, want 1", got)
	}
	if got := DeepestCommonDepth(nil); got != 0 {
		t.Errorf("empty DeepestCommonDepth = %d", got)
	}
	// Disjoint from position 0: nothing common.
	e := NewPathSet(mkPath("2.2.2.2"))
	if got := DeepestCommonDepth([]*PathSet{c, e}); got != 0 {
		t.Errorf("disjoint DeepestCommonDepth = %d", got)
	}
}

func TestSubPathKey(t *testing.T) {
	p := mkPath("1.1.1.1", "2.2.2.2", "3.3.3.3")
	if SubPathKey(p, 1) != Path(p[1:]).Key() {
		t.Error("SubPathKey mismatch")
	}
	if SubPathKey(p, 3) != "" || SubPathKey(p, 10) != "" {
		t.Error("past-end SubPathKey should be empty")
	}
}

func TestPathSetCloneIsolation(t *testing.T) {
	p := mkPath("1.1.1.1", "2.2.2.2")
	s := NewPathSet(p)
	p[0] = R(ip("9.9.9.9")) // mutate the original
	if s.Paths()[0][0].Addr != ip("1.1.1.1") {
		t.Error("PathSet must store a copy of added paths")
	}
}
