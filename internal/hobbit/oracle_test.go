package hobbit

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/rng"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// runOracle is the one-shot form of the campaign, the oracle RunStream
// and Run are checked against: every block is handed to an unordered
// worker pool and results are keyed by block, with Order copied from the
// input.
func (c *Campaign) runOracle(ctx context.Context, blocks []iputil.Block24) (*Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{
		Blocks: make(map[iputil.Block24]*BlockResult, len(blocks)),
		Order:  append([]iputil.Block24(nil), blocks...),
	}
	met := c.metrics()

	type item struct {
		b  iputil.Block24
		br *BlockResult
	}
	in := make(chan iputil.Block24)
	out := make(chan item)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range in {
				br := c.Measurer.MeasureBlock(b, c.Dataset.ActivesBy26(b))
				met.measured.Inc()
				met.classes[br.Class].Inc()
				met.probed.Observe(int64(br.Probed))
				met.responded.Observe(int64(br.Responded))
				if br.Degraded > 0 {
					met.degraded.Inc()
				}
				out <- item{b: b, br: &br}
			}
		}()
	}
	go func() {
		defer func() {
			close(in)
			wg.Wait()
			close(out)
		}()
		for _, b := range blocks {
			select {
			case in <- b:
			case <-ctx.Done():
				return
			}
		}
	}()
	for it := range out {
		res.Blocks[it.b] = it.br
	}
	return res, ctx.Err()
}

// measureBlockOracle is MeasureBlock without the anonymous-last-hop stop:
// a /24 whose last hop never answers is probed down to its last
// census-active address. It is the oracle for that rule, which must
// reach the same verdict from fewer destinations.
func (m *Measurer) measureBlockOracle(b iputil.Block24, by26 [4][]iputil.Addr) BlockResult {
	res := BlockResult{Block: b}
	// Empty, not nil: MeasureBlock's Groups are an empty slice when no
	// last hop answers.
	gm := groupMap{}
	term := m.term()
	for _, dst := range m.orderOracle(b, by26) {
		lr := probe.FindLastHops(m.Net, dst, m.Opts, nil)
		res.Probed++
		if lr.Degraded {
			res.Degraded++
		}
		if !lr.Responded {
			continue
		}
		res.Responded++
		if len(lr.LastHops) == 0 {
			res.UnrespLastHop++
			continue
		}
		for _, lh := range lr.LastHops {
			gm.add(lh, dst)
		}
		if m.Exhaustive {
			if term.Enough(len(gm), res.Responded) && res.Responded >= singleLastHopProbes {
				break
			}
			continue
		}
		if len(gm) == 1 && res.Responded >= singleLastHopProbes {
			break
		}
		if len(gm) > 1 && (NonHierarchical(gm.groups()) || term.Enough(len(gm), res.Responded)) {
			break
		}
	}
	res.Groups = gm.groups()
	res.LastHops = make([]iputil.Addr, 0, len(res.Groups))
	for _, g := range res.Groups {
		res.LastHops = append(res.LastHops, g.LastHop)
	}
	res.Class = m.classify(&res, term)
	if res.Class == ClassHierarchical {
		res.SubBlocks, res.VeryLikelyHetero = AlignedDisjoint(res.Groups)
	}
	return res
}

// orderOracle is the materializing form of Order: it copies every
// non-empty /26 and builds the whole sequence, one permutation slice per
// round. It is the oracle for Order and for the order Resume probes in.
func (m *Measurer) orderOracle(b iputil.Block24, by26 [4][]iputil.Addr) []iputil.Addr {
	if m.SequentialOrder {
		var out []iputil.Addr
		for _, q := range by26 {
			out = append(out, q...)
		}
		iputil.SortAddrs(out)
		return out
	}
	var quarters [][]iputil.Addr
	total := 0
	for _, q := range by26 {
		if len(q) > 0 {
			cp := append([]iputil.Addr(nil), q...)
			quarters = append(quarters, cp)
			total += len(cp)
		}
	}
	out := make([]iputil.Addr, 0, total)
	idx := make([]int, len(quarters))
	for round := 0; len(out) < total; round++ {
		// The round's Fisher-Yates shuffle, drawn with the variadic
		// rng form so the oracle stays independent of Order's chain.
		perm := make([]int, len(quarters))
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i+1, m.Seed, uint64(b), uint64(round), uint64(i))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, qi := range perm {
			if idx[qi] < len(quarters[qi]) {
				out = append(out, quarters[qi][idx[qi]])
				idx[qi]++
			}
		}
	}
	return out
}

// TestOrderMatchesOracle checks Order, and with it the sequence Resume
// draws from, against the materializing oracle on every eligible /24 of
// clean worlds at three seeds, in the shuffled /26 order and the
// sequential ablation. Inputs no campaign passes are covered too: one
// /26 dropped, all but one dropped, and the /26s in reverse order, which
// only the sequential ablation's sort puts back in address order.
func TestOrderMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{3, 7, 11} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := netsim.DefaultConfig(measureOracleBlocks)
			cfg.BigBlockScale = 0.05
			cfg.Seed = seed
			w, err := netsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds := zmap.Collect(zmap.Stream(context.Background(), w, w.Blocks(), zmap.StreamOptions{}))
			eligible := ds.EligibleBlocks(w.Blocks(), 4)
			if len(eligible) < 3000 {
				t.Fatalf("only %d eligible /24s", len(eligible))
			}
			for _, b := range eligible {
				full := ds.ActivesBy26(b)
				q := int(b) % 4
				oneGone, oneLeft := full, [4][]iputil.Addr{}
				oneGone[q], oneLeft[q] = nil, full[q]
				reversed := [4][]iputil.Addr{full[3], full[2], full[1], full[0]}
				for _, by26 := range [][4][]iputil.Addr{full, oneGone, oneLeft, reversed} {
					for _, sequential := range []bool{false, true} {
						m := &Measurer{Seed: seed, SequentialOrder: sequential}
						if got, want := m.Order(b, by26), m.orderOracle(b, by26); !slices.Equal(got, want) {
							t.Fatalf("%v (sequential %v, actives %v): order %v, oracle %v", b, sequential, by26, got, want)
						}
					}
				}
			}
		})
	}
}

// TestMeasureBlockMatchesOracle measures every eligible /24 of clean
// worlds at three seeds, and of a rate-storm world, with MeasureBlock and
// with the probe-every-active oracle. Class, last-hop set, groups and the
// very-likely-heterogeneous split match; a /24 that probes fewer
// destinations than the oracle is an Unresponsive last-hop /24 that the
// anonymous-last-hop rule stopped at its sixth responder, and netsim
// plants it behind last hops that never answer. Every other /24 probes
// exactly as the oracle does.
func TestMeasureBlockMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		plan string
	}{{3, ""}, {7, ""}, {11, ""}, {7, "rate-storm"}} {
		name := fmt.Sprintf("seed-%d", tc.seed)
		if tc.plan != "" {
			name += "-" + tc.plan
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			compareMeasureOracle(t, tc.seed, tc.plan)
		})
	}
}

// compareMeasureOracle is one world of TestMeasureBlockMatchesOracle.
func compareMeasureOracle(t *testing.T, seed uint64, plan string) {
	cfg := netsim.DefaultConfig(measureOracleBlocks)
	cfg.BigBlockScale = 0.05
	cfg.Seed = seed
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		sched, err := faultplan.CompileBuiltin(plan, w)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(sched)
	}
	ds := zmap.Collect(zmap.Stream(context.Background(), w, w.Blocks(), zmap.StreamOptions{}))
	m := &Measurer{Net: probe.NewSimNetwork(w), Seed: seed}
	eligible := ds.EligibleBlocks(w.Blocks(), 4)
	stopped, probed, oracleProbed := 0, 0, 0
	for _, b := range eligible {
		by26 := ds.ActivesBy26(b)
		got, want := m.MeasureBlock(b, by26), m.measureBlockOracle(b, by26)
		probed += got.Probed
		oracleProbed += want.Probed
		if got.Class != want.Class || !slices.Equal(got.LastHops, want.LastHops) || !reflect.DeepEqual(got.Groups, want.Groups) ||
			got.VeryLikelyHetero != want.VeryLikelyHetero || !slices.Equal(got.SubBlocks, want.SubBlocks) {
			t.Errorf("%v: verdict %v %v %v, oracle %v %v %v", b, got.Class, got.LastHops, got.SubBlocks, want.Class, want.LastHops, want.SubBlocks)
			continue
		}
		if got.Probed == want.Probed {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: %+v, oracle %+v", b, got, want)
			}
			continue
		}
		stopped++
		switch {
		case got.Class != ClassUnresponsiveLastHop || got.Probed > want.Probed:
			t.Errorf("%v (%v) probed %d destinations, the oracle %d", b, got.Class, got.Probed, want.Probed)
		case got.Responded != singleLastHopProbes || got.UnrespLastHop != singleLastHopProbes:
			t.Errorf("%v stopped at %d responders (%d anonymous), want %d", b, got.Responded, got.UnrespLastHop, singleLastHopProbes)
		case got.Degraded > want.Degraded:
			t.Errorf("%v: degraded %d, oracle %d", b, got.Degraded, want.Degraded)
		case !w.UnresponsiveLastHop(b):
			t.Errorf("%v stopped as Unresponsive last-hop, but its last hops answer", b)
		}
	}
	t.Logf("%d eligible /24s, %d stopped early; %d destinations probed, the oracle %d", len(eligible), stopped, probed, oracleProbed)
	if stopped < 100 {
		t.Errorf("only %d /24s stopped early, too few to check the rule", stopped)
	}
}

// measureOracleBlocks sizes TestMeasureBlockMatchesOracle's worlds: some
// 3,400 eligible /24s each, of which 430 to 530 stop early, and the four
// worlds run in a few seconds under -race.
const measureOracleBlocks = 10000
