package netsim

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

func TestOutagesEpochZeroClean(t *testing.T) {
	w := testWorld(t, 600)
	for _, b := range w.Blocks()[:100] {
		if w.TrueOutage(b) {
			t.Fatalf("block %v dark at epoch 0", b)
		}
	}
}

func TestOutagesDarkenWholeAggregates(t *testing.T) {
	w := testWorld(t, 1200)
	w.SetEpoch(1)
	defer w.SetEpoch(0)

	dark, lit := 0, 0
	for _, b := range w.Blocks() {
		if w.TrueOutage(b) {
			dark++
		} else {
			lit++
		}
	}
	if dark == 0 {
		t.Fatal("no outages at epoch 1 with POutage > 0")
	}
	frac := float64(dark) / float64(dark+lit)
	if frac < 0.005 || frac > 0.15 {
		t.Errorf("outage fraction = %v, want around POutage", frac)
	}

	// Fate sharing: every block of a dark pop is dark, and none of its
	// hosts answer.
	var darkBlock iputil.Block24
	for _, b := range w.Blocks() {
		if hom, _ := w.TrueHomogeneous(b); hom && w.TrueOutage(b) {
			darkBlock = b
			break
		}
	}
	if darkBlock == 0 {
		t.Skip("no homogeneous dark block found")
	}
	pid, _ := w.TrueAggregate(darkBlock)
	for _, b := range w.AggregateBlocks(pid) {
		if !w.TrueOutage(b) {
			t.Fatalf("aggregate %d block %v escaped its outage", pid, b)
		}
		for i := 0; i < 256; i += 19 {
			if w.RespondsNow(b.Addr(i)) {
				t.Fatalf("host %v answers during its aggregate's outage", b.Addr(i))
			}
		}
	}

	// Outages are epoch-local: the same block is back at epoch 2 or 3
	// with high probability; at minimum epoch 0 is always clean.
	w.SetEpoch(0)
	if w.TrueOutage(darkBlock) {
		t.Error("outage leaked into epoch 0")
	}
}

func TestEpochChurnDensityStable(t *testing.T) {
	w := testWorld(t, 800)
	count := func() int {
		n := 0
		for _, b := range w.Blocks()[:200] {
			for i := 0; i < 256; i += 3 {
				if w.ScanPing(b.Addr(i)) {
					n++
				}
			}
		}
		return n
	}
	w.SetEpoch(0)
	base := count()
	w.SetEpoch(2)
	later := count()
	w.SetEpoch(0)
	if base == 0 {
		t.Fatal("no actives")
	}
	ratio := float64(later) / float64(base)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("population density drifted: %d -> %d (%.2fx)", base, later, ratio)
	}
}
