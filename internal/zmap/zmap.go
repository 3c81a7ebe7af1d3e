// Package zmap reproduces the role of the ZMap ICMP Echo Request census in
// the paper: a full sweep of the address space recording which addresses
// answered, and the /24 selection criteria built on it (at least four
// active addresses with every /26 covered, Section 3.3).
package zmap

import (
	"math/bits"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Scanner answers the census-time echo requests of one /24: bit i of the
// returned bitmap (word i>>6, bit i&63) is set when b.Addr(i) replied.
// The sweep's unit is the block, so an implementation resolves per-block
// state once rather than per address. netsim.World satisfies this with
// its scan-epoch behaviour; a live deployment would wrap a raw-socket
// pinger that sweeps the block's 256 addresses. Implementations must be
// safe for concurrent ScanBlock calls: Stream fans the sweep out over
// workers.
type Scanner interface {
	ScanBlock(b iputil.Block24) [4]uint64
}

// Dataset is the result of a census sweep: a 256-bit activity bitmap per
// /24 block.
type Dataset struct {
	active map[iputil.Block24]*[4]uint64
}

// NewDataset returns an empty dataset for incremental recording.
func NewDataset() *Dataset {
	return &Dataset{active: make(map[iputil.Block24]*[4]uint64)}
}

// Equal reports whether two datasets record exactly the same responders.
func (d *Dataset) Equal(o *Dataset) bool {
	if len(d.active) != len(o.active) {
		return false
	}
	for b, bm := range d.active {
		obm, ok := o.active[b]
		if !ok || *bm != *obm {
			return false
		}
	}
	return true
}

// Record marks a single address as active, for building datasets by hand.
func (d *Dataset) Record(a iputil.Addr) {
	b := a.Block24()
	bm, ok := d.active[b]
	if !ok {
		bm = new([4]uint64)
		d.active[b] = bm
	}
	i := a.Low8()
	bm[i>>6] |= 1 << uint(i&63)
}

// Active reports whether the address answered the census.
func (d *Dataset) Active(a iputil.Addr) bool {
	bm, ok := d.active[a.Block24()]
	if !ok {
		return false
	}
	i := a.Low8()
	return bm[i>>6]&(1<<uint(i&63)) != 0
}

// ActiveCount returns the number of census responders in the block.
func (d *Dataset) ActiveCount(b iputil.Block24) int {
	bm, ok := d.active[b]
	if !ok {
		return 0
	}
	return bits.OnesCount64(bm[0]) + bits.OnesCount64(bm[1]) +
		bits.OnesCount64(bm[2]) + bits.OnesCount64(bm[3])
}

// Actives returns the census responders of a block in ascending order.
func (d *Dataset) Actives(b iputil.Block24) []iputil.Addr {
	bm, ok := d.active[b]
	if !ok {
		return nil
	}
	out := make([]iputil.Addr, 0, d.ActiveCount(b))
	for q, w := range bm {
		for ; w != 0; w &= w - 1 {
			out = append(out, b.Addr(q<<6|bits.TrailingZeros64(w)))
		}
	}
	return out
}

// ActivesBy26 splits a block's census responders by their /26, the
// grouping the destination-selection strategy probes round-robin, each
// /26 in ascending order and nil when it has none. Bitmap word q is /26
// q, so the /26s are Actives cut at the words' bit counts, in one
// backing array; each is capped at its own length, so appending to one
// cannot write into the next.
func (d *Dataset) ActivesBy26(b iputil.Block24) [4][]iputil.Addr {
	var out [4][]iputil.Addr
	rest := d.Actives(b)
	if rest == nil {
		return out
	}
	for q, w := range d.active[b] {
		if n := bits.OnesCount64(w); n > 0 {
			out[q], rest = rest[:n:n], rest[n:]
		}
	}
	return out
}

// TotalActive returns the number of census responders across all blocks.
func (d *Dataset) TotalActive() int {
	total := 0
	for b := range d.active {
		total += d.ActiveCount(b)
	}
	return total
}

// Eligible reports whether the block meets Section 3.3's selection
// criteria: at least minActive census responders overall and at least one
// in every /26.
func (d *Dataset) Eligible(b iputil.Block24, minActive int) bool {
	bm, ok := d.active[b]
	if !ok {
		return false
	}
	count := 0
	for q := 0; q < 4; q++ {
		qbits := bits.OnesCount64(bm[q])
		if qbits == 0 {
			return false
		}
		count += qbits
	}
	return count >= minActive
}

// EligibleBlocks filters blocks by the selection criteria, preserving
// order.
func (d *Dataset) EligibleBlocks(blocks []iputil.Block24, minActive int) []iputil.Block24 {
	out := make([]iputil.Block24, 0, len(blocks))
	for _, b := range blocks {
		if d.Eligible(b, minActive) {
			out = append(out, b)
		}
	}
	return out
}
