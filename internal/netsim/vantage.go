package netsim

import (
	"fmt"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// Vantage is a view of the world from one of its probing vantage points.
// Vantage 0 answers byte-identically to the World's own probe methods
// (the paper's single UMD source); other vantages see different source
// access routers and — for aggregates whose load balancers hash the
// source address — different per-destination branches and last hops, the
// Section 6.1 effect that multi-vantage probing exploits.
type Vantage struct {
	w *World
	v int
}

// Vantage returns the v-th vantage point; it panics if v is out of range
// (Config.Vantages bounds the count).
func (w *World) Vantage(v int) *Vantage {
	if v < 0 || v >= len(w.srcHops) {
		panic(fmt.Sprintf("netsim: vantage %d out of range [0, %d)", v, len(w.srcHops)))
	}
	return &Vantage{w: w, v: v}
}

// NumVantages returns the number of vantage points the world supports.
func (w *World) NumVantages() int { return len(w.srcHops) }

// Ping mirrors World.Ping from this vantage.
func (vt *Vantage) Ping(dst iputil.Addr, seq int) (ProbeReply, bool) {
	return vt.w.pingFrom(vt.v, dst, seq)
}

// Probe mirrors World.Probe from this vantage.
func (vt *Vantage) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) ProbeReply {
	return vt.w.probeFrom(vt.v, dst, ttl, flowID, salt)
}

// ScanBlock mirrors World.ScanBlock (the census answer does not depend on
// the vantage).
func (vt *Vantage) ScanBlock(b iputil.Block24) [4]uint64 { return vt.w.ScanBlock(b) }

// SrcSensitive reports whether the block's per-destination load balancers
// hash the source address (ground truth for the multi-vantage ablation).
func (w *World) SrcSensitive(b iputil.Block24) bool {
	rec := w.rec(b)
	if rec == nil {
		return false
	}
	return w.pops[w.activeEntries(rec)[0].pop].srcSens
}
