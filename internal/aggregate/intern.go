package aggregate

import (
	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Interner deduplicates last-hop router sets: every distinct set is stored
// once, as a single canonical sorted []iputil.Addr plus its Key encoding,
// and every block observed to share that set points at the same backing
// slice. A 64.45M-destination campaign observes the same few last-hop sets
// millions of times, so interning collapses the aggregation and clustering
// stages' dominant storage cost to one copy per distinct set. Interned
// slices are shared and must be treated as immutable.
//
// An Interner is not safe for concurrent use; the pipeline threads one
// through its serial aggregation and merge steps.
type Interner struct {
	byKey map[string]internEnt
	buf   []byte
}

type internEnt struct {
	set []iputil.Addr
	key string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{byKey: make(map[string]internEnt)}
}

// Intern returns the canonical slice and Key for the given sorted last-hop
// set. The first caller to present a set pays one copy; every later caller
// with an equal set gets the same backing slice and the same key string,
// and allocates nothing: the lookup encodes the key into a reused buffer.
// The input slice is not retained.
func (in *Interner) Intern(set []iputil.Addr) ([]iputil.Addr, string) {
	in.buf = AppendKey(in.buf[:0], set)
	if e, ok := in.byKey[string(in.buf)]; ok {
		return e.set, e.key
	}
	e := internEnt{set: append([]iputil.Addr(nil), set...), key: string(in.buf)}
	in.byKey[e.key] = e
	return e.set, e.key
}

// Len returns the number of distinct sets interned so far.
func (in *Interner) Len() int { return len(in.byKey) }
