// The allocation assertions run only without -race: the race detector
// instruments allocation sites and perturbs the counts AllocsPerRun sees.
//
//go:build !race

package hobbit

import (
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// TestMeasureAllocBudget pins the allocations of measuring one /24,
// averaged over every eligible /24 of the harness world, through an
// instrumented Net as a campaign probes: MeasureBlock from scratch, and
// the exhaustive Resume of its campaign result that validation runs.
// Drawing the order, the stop checks and the last-hop walks allocate
// nothing, so what is left is the results: the one last-hop buffer the
// block's searches share, the block's groups and their member lists as
// they grow (Resume first copies the campaign's), its LastHops list and
// a hierarchical block's sub-blocks, plus the Batch view that counts the
// block's packets.
func TestMeasureAllocBudget(t *testing.T) {
	_, c, eligible := campaignWorld(t, 300)
	m := c.Measurer
	m.Net = probe.Instrument(m.Net, nil, "measure")
	ex := *m
	ex.Exhaustive = true
	by26 := make([][4][]iputil.Addr, len(eligible))
	campaign := make([]BlockResult, len(eligible))
	for i, b := range eligible {
		by26[i] = c.Dataset.ActivesBy26(b)
		campaign[i] = m.MeasureBlock(b, by26[i])
	}
	cases := []struct {
		name   string
		budget float64
		fn     func(i int)
	}{
		{"MeasureBlock", 14, func(i int) { m.MeasureBlock(eligible[i], by26[i]) }},
		{"Resume/exhaustive", 16.5, func(i int) { ex.Resume(&campaign[i], by26[i]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(3, func() {
				for i := range eligible {
					tc.fn(i)
				}
			}) / float64(len(eligible))
			t.Logf("%s allocates %.2f times per /24 over %d /24s", tc.name, avg, len(eligible))
			if avg > tc.budget {
				t.Errorf("%s allocates %.2f times per /24, budget %.1f", tc.name, avg, tc.budget)
			}
		})
	}
}
