// Package hobbit holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (one benchmark per experiment, see
// DESIGN.md's per-experiment index), micro-benchmarks of the measurement
// hot paths, and the ablation benchmarks of the design choices called out
// in DESIGN.md section 4.
//
// Run with: go test -bench=. -benchmem
package hobbit

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/confidence"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/eval"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/graph"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/mcl"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/rng"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

var (
	benchOnce sync.Once
	benchLab  *eval.Lab
	benchErr  error
)

// lab returns the shared benchmark laboratory (world + cached pipeline).
func lab(b *testing.B) *eval.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = eval.NewLab(eval.LabConfig{
			NumBlocks:     2500,
			BigBlockScale: 0.03,
		})
		if benchErr == nil {
			// Warm the pipeline and trace dataset outside any timer.
			if _, err := benchLab.Pipeline(); err != nil {
				benchErr = err
				return
			}
			_, benchErr = benchLab.TraceDataset()
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// BenchmarkExperiments regenerates every registered table and figure; each
// sub-benchmark is one experiment ID from DESIGN.md's index.
func BenchmarkExperiments(b *testing.B) {
	l := lab(b)
	for _, e := range eval.Experiments() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			// One untimed run first. Under -benchtime=1x the timed call
			// would otherwise also measure whether a GC had just emptied
			// the pools the experiment's formatting draws from, which
			// moves a small experiment's B/op by a fifth between runs.
			r, err := e.Run(l)
			if err != nil {
				b.Fatal(err)
			}
			if testing.Verbose() {
				r.WriteTo(io.Discard)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate and measurement micro-benchmarks ---

func BenchmarkWorldBuild(b *testing.B) {
	cfg := netsim.DefaultConfig(20000)
	cfg.BigBlockScale = 0.1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbe sends TTL-limited probes the way a campaign does: each
// call goes to the next destination of responsiveDsts instead of
// revisiting one route forever.
func BenchmarkProbe(b *testing.B) {
	l := lab(b)
	dsts := responsiveDsts(b, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Net.Probe(dsts[i%len(dsts)], 7, uint16(i&0xf), uint32(i))
	}
}

// BenchmarkFaultQueries sweeps the fault-plan queries netsim makes per
// probe — Blackholed, RateBoost, LossBoost, FlapKey — over one
// destination in each /24 of a 20k-/24 world at four epochs, one leg per
// built-in plan.
// Plan size grows with the universe, so a return to scanning every event
// per query shows here as a many-fold ns/op jump, and any allocation
// trips the zero-baseline allocs/op gate.
func BenchmarkFaultQueries(b *testing.B) {
	cfg := netsim.DefaultConfig(20000)
	cfg.BigBlockScale = 0.05
	w, err := netsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blocks := w.Blocks()
	dsts := make([]iputil.Addr, len(blocks))
	pops := make([]int32, len(blocks))
	for i, blk := range blocks {
		dsts[i] = blk.Addr(1)
		pops[i] = -1 // no pop: RateBoost still searches
		if id, ok := w.PopOfAddr(dsts[i]); ok {
			pops[i] = id
		}
	}
	for _, name := range []string{"rate-storm", "churn", "blackhole", "flap"} {
		s, err := faultplan.CompileBuiltin(name, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				// Epochs 0-2 sit inside the built-in windows, 3 after them.
				for epoch := 0; epoch < 4; epoch++ {
					for j, dst := range dsts {
						if s.Blackholed(epoch, dst) {
							hits++
						}
						if s.RateBoost(epoch, pops[j])+s.LossBoost(epoch, 0) > 0 {
							hits++
						}
						if _, ok := s.FlapKey(epoch, blocks[j]); ok {
							hits++
						}
					}
				}
			}
			if hits == 0 {
				b.Fatalf("%s: no query hit a fault", name)
			}
		})
	}
}

// BenchmarkMDA traces one destination per op, cycling over
// responsiveDsts like BenchmarkProbe.
func BenchmarkMDA(b *testing.B) {
	l := lab(b)
	dsts := responsiveDsts(b, l)
	reached := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if probe.MDA(l.Net, dsts[i%len(dsts)], probe.MDAOptions{}).DestReached {
			reached++
		}
	}
	if reached == 0 {
		b.Fatal("no destination reached")
	}
}

// BenchmarkFindLastHops runs the last-hop search on one destination per
// op, cycling over responsiveDsts like BenchmarkProbe.
func BenchmarkFindLastHops(b *testing.B) {
	l := lab(b)
	dsts := responsiveDsts(b, l)
	responded := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if probe.FindLastHops(l.Net, dsts[i%len(dsts)], probe.MDAOptions{}).Responded {
			responded++
		}
	}
	if responded == 0 {
		b.Fatal("no destination responded")
	}
}

// responsiveDsts returns one probe-time responsive destination per
// census-eligible /24, in block order: the population a campaign probes.
func responsiveDsts(b *testing.B, l *eval.Lab) []iputil.Addr {
	b.Helper()
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	var dsts []iputil.Addr
	for _, blk := range out.Eligible {
		for i := 1; i < 255; i++ {
			if a := blk.Addr(i); l.World.RespondsNow(a) {
				dsts = append(dsts, a)
				break
			}
		}
	}
	if len(dsts) == 0 {
		b.Fatal("no responsive destination")
	}
	return dsts
}

// BenchmarkMeasureBlock measures a fixed, seed-derived sample of
// eligible /24s end to end per op and reports the probe cost per block,
// so probes/block is the same at any -benchtime.
func BenchmarkMeasureBlock(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	counter := probe.Instrument(l.Net, nil, "")
	m := &hobbit.Measurer{Net: counter, Seed: 1}
	blocks := sampleBlocks(out.Eligible, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			m.MeasureBlock(blk, out.Dataset.ActivesBy26(blk))
		}
	}
	b.ReportMetric(float64(len(blocks)), "blocks/op")
	b.ReportMetric(float64(counter.Probes())/float64(b.N*len(blocks)), "probes/block")
}

// sampleBlocks draws n of blocks without replacement, in draw order, by a
// partial Fisher-Yates shuffle keyed by seed: a fixed sample that does
// not depend on how many ops a benchmark runs.
func sampleBlocks(blocks []iputil.Block24, n int, seed uint64) []iputil.Block24 {
	pool := append([]iputil.Block24(nil), blocks...)
	n = min(n, len(pool))
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(pool)-i, seed, uint64(i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:n]
}

// BenchmarkCensus sweeps 500 blocks through the ZMap census
// (zmap.Collect over zmap.Stream, chunk size derived from the input),
// serial against 8 workers; the dataset is identical either way (see
// TestScanWorkersIdentical), so only the wall clock may differ.
func BenchmarkCensus(b *testing.B) {
	l := lab(b)
	blocks := l.World.Blocks()[:500]
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				zmap.Collect(zmap.Stream(context.Background(), l.World, blocks, zmap.StreamOptions{Workers: workers}))
			}
		})
	}
}

func BenchmarkMCLCore(b *testing.B) {
	// A synthetic component shaped like the real similarity graphs:
	// several dense families bridged by weak edges.
	g := graph.New(240)
	for f := 0; f < 8; f++ {
		base := f * 30
		for i := 0; i < 30; i++ {
			for j := i + 1; j < 30; j++ {
				if (i+j)%3 == 0 {
					g.AddEdge(base+i, base+j, 0.8)
				}
			}
		}
		if f > 0 {
			g.AddEdge(base, base-30, 0.05)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := mcl.Cluster(g, mcl.Options{}); len(got) < 2 {
			b.Fatalf("clusters = %d", len(got))
		}
	}
}

// BenchmarkMCLExpand measures MCL over a dense synthetic component of
// 320 vertices, several times larger than any workload's largest.
func BenchmarkMCLExpand(b *testing.B) {
	// Several dense families bridged by weak edges.
	const families, size = 8, 40
	g := graph.New(families * size)
	for f := 0; f < families; f++ {
		base := f * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if (i+j)%3 == 0 {
					g.AddEdge(base+i, base+j, 0.8)
				}
			}
		}
		if f > 0 {
			g.AddEdge(base, base-size, 0.05)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mcl.Cluster(g, mcl.Options{}); len(got) < 2 {
			b.Fatalf("clusters = %d", len(got))
		}
	}
}

// --- Parallel-stage benchmarks (regressed against BENCH_4.json) ---
//
// Each compares the serial path (workers-1) against an 8-worker pool over
// the same inputs; the outputs are byte-identical by contract (see
// DESIGN.md), so only the wall clock may differ. Speedups only show on
// multi-core hosts — GOMAXPROCS=1 runs both legs on one core.

// BenchmarkClusterGraph measures similarity-graph construction through
// the inverted-index build the streaming clusterer uses (serial).
func BenchmarkClusterGraph(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	if len(out.Aggregates) == 0 {
		b.Skip("no aggregates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := cluster.BuildGraph(out.Aggregates)
		if g.Len() != len(out.Aggregates) {
			b.Fatal("graph size mismatch")
		}
	}
}

// benchReprober is the exhaustive Section 6.5 reprobe as core.Pipeline's
// validation stage runs it: each block resumes its campaign measurement.
type benchReprober struct {
	m        *hobbit.Measurer
	ds       *zmap.Dataset
	campaign *hobbit.Result
}

func (r benchReprober) Reprobe(blk iputil.Block24) []iputil.Addr {
	return r.m.Resume(r.campaign.Blocks[blk], r.ds.ActivesBy26(blk)).LastHops
}

// BenchmarkValidate measures cluster reprobe validation fanned out over
// the worker pool, merged in cluster-ID order, every pair checked. Each
// reprobe resumes the lab campaign's measurement with the lab
// pipeline's exhaustive Measurer, so packets/op is the validation
// stage's probing cost, the same at any -benchtime.
func BenchmarkValidate(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	if out.Clustering == nil || len(out.Clustering.Clusters) == 0 {
		b.Skip("no clusters to validate")
	}
	clusters := out.Clustering.Clusters
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			m := l.Config().Measurer(true)
			net := probe.Instrument(m.Net, nil, core.StageValidate)
			m.Net = net
			rp := benchReprober{m: m, ds: out.Dataset, campaign: out.Campaign}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals := make([]cluster.Validation, len(clusters))
				pool := parallel.Pool{Workers: workers}
				err := pool.ForEach(context.Background(), len(clusters), func(j int) {
					vals[j] = cluster.Validate(clusters[j], rp, 0, l.Seed)
				})
				if err != nil {
					b.Fatal(err)
				}
				checked := 0
				for _, v := range vals {
					checked += v.PairsChecked
				}
				if checked == 0 {
					b.Fatal("validation checked no pairs")
				}
			}
			b.ReportMetric(float64(net.Pings()+net.Probes())/float64(b.N), "packets/op")
		})
	}
}

func BenchmarkAggregateIdentical(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	results := out.Campaign.HomogeneousBlocks()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aggregate.Identical(results)
	}
}

// --- Ablations (DESIGN.md section 4) ---

// BenchmarkAblationTermination compares the default MDA-rule terminator
// with the empirical Figure-4 confidence table and with never terminating:
// the trade-off between probing cost and verdicts. Each op measures the
// same seed-derived sample of eligible /24s, so probes/block and accuracy
// are the same at any -benchtime.
func BenchmarkAblationTermination(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	table, err := l.BuildConfidence(1500)
	if err != nil {
		b.Fatal(err)
	}
	blocks := sampleBlocks(out.Eligible, 128, 1)
	cases := []struct {
		name string
		term hobbit.Terminator
	}{
		{name: "mda-rule", term: hobbit.MDATerminator{}},
		{name: "fig4-table", term: table},
		{name: "probe-all", term: neverEnough{}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			counter := probe.Instrument(l.Net, nil, "")
			m := &hobbit.Measurer{Net: counter, Term: c.term, Seed: 1}
			correct, judged := 0, 0
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					br := m.MeasureBlock(blk, out.Dataset.ActivesBy26(blk))
					if br.Class.Analyzable() {
						judged++
						hom, _ := l.World.TrueHomogeneous(blk)
						if br.Class.Homogeneous() == hom {
							correct++
						}
					}
				}
			}
			b.ReportMetric(float64(len(blocks)), "blocks/op")
			b.ReportMetric(float64(counter.Probes())/float64(b.N*len(blocks)), "probes/block")
			if judged > 0 {
				b.ReportMetric(float64(correct)/float64(judged), "accuracy")
			}
		})
	}
}

// neverEnough never calls a hierarchical-looking block, so Hobbit probes
// such a block down to its last active address.
type neverEnough struct{}

func (neverEnough) Enough(int, int) bool { return false }

// BenchmarkAblationOrder compares the Section 3.3 shuffled /26
// round-robin destination order against naive ascending-address probing
// over the planted heterogeneous blocks: covering the /26s early exposes
// splits with fewer probes. Each op measures the same seed-derived sample
// of them, so probes/block and flagged-hetero are the same at any
// -benchtime.
func BenchmarkAblationOrder(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	var hetero []iputil.Block24
	for _, blk := range l.World.HeteroBlocks() {
		if out.Dataset.Eligible(blk, 4) {
			hetero = append(hetero, blk)
		}
	}
	if len(hetero) == 0 {
		b.Skip("no eligible heterogeneous blocks")
	}
	hetero = sampleBlocks(hetero, 64, 1)
	for _, c := range []struct {
		name       string
		sequential bool
	}{
		{name: "rr-26", sequential: false},
		{name: "sequential", sequential: true},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			counter := probe.Instrument(l.Net, nil, "")
			m := &hobbit.Measurer{Net: counter, Seed: 1, SequentialOrder: c.sequential}
			flagged, analyzable := 0, 0
			for i := 0; i < b.N; i++ {
				for _, blk := range hetero {
					br := m.MeasureBlock(blk, out.Dataset.ActivesBy26(blk))
					if br.Class.Analyzable() {
						analyzable++
						if br.VeryLikelyHetero {
							flagged++
						}
					}
				}
			}
			b.ReportMetric(float64(len(hetero)), "blocks/op")
			b.ReportMetric(float64(counter.Probes())/float64(b.N*len(hetero)), "probes/block")
			if analyzable > 0 {
				b.ReportMetric(float64(flagged)/float64(analyzable), "flagged-hetero")
			}
		})
	}
}

// BenchmarkAblationMDAStop compares the published per-hop stopping table
// with a naive fixed probe count per hop.
func BenchmarkAblationMDAStop(b *testing.B) {
	l := lab(b)
	dst := responsiveDsts(b, l)[0]
	for _, c := range []struct {
		name     string
		maxFlows int
	}{
		{name: "stopping-table", maxFlows: 0}, // default: per-hop rule
		{name: "fixed-6", maxFlows: 6},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			paths := 0
			for i := 0; i < b.N; i++ {
				res := probe.MDA(l.Net, dst, probe.MDAOptions{MaxFlows: c.maxFlows})
				paths += res.Paths.Len()
			}
			b.ReportMetric(float64(paths)/float64(b.N), "paths/run")
		})
	}
}

// BenchmarkAblationMCLPreprocess compares running MCL per connected
// component (the paper's preprocessing) with running it on the whole
// graph at once — the cubic-cost motivation of Section 6.3.
func BenchmarkAblationMCLPreprocess(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	g := cluster.BuildGraph(out.Aggregates)
	b.Run("per-component", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, comp := range g.Components() {
				if len(comp) < 2 {
					total++
					continue
				}
				sub, _ := g.Subgraph(comp)
				total += len(mcl.Cluster(sub, mcl.Options{}))
			}
			if total == 0 {
				b.Fatal("no clusters")
			}
		}
	})
	b.Run("whole-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := mcl.Cluster(g, mcl.Options{}); len(got) == 0 {
				b.Fatal("no clusters")
			}
		}
	})
}

// BenchmarkAblationWildcard quantifies the Section 2.1 wildcard rule: the
// cost of route-set comparison with and without unresponsive-hop
// tolerance.
func BenchmarkAblationWildcard(b *testing.B) {
	l := lab(b)
	ds, err := l.TraceDataset()
	if err != nil {
		b.Fatal(err)
	}
	if len(ds.Blocks) < 2 {
		b.Skip("trace dataset too small")
	}
	s1 := ds.Blocks[0].Sets[0]
	s2 := ds.Blocks[1].Sets[0]
	for _, wildcard := range []bool{false, true} {
		name := "exact"
		if wildcard {
			name = "wildcard"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s1.SharesRoute(s2, wildcard)
			}
		})
	}
}

// BenchmarkConfidenceTable builds the Figure 4 table at increasing sample
// budgets.
func BenchmarkConfidenceTable(b *testing.B) {
	l := lab(b)
	ds, err := l.TraceDataset()
	if err != nil {
		b.Fatal(err)
	}
	var obs []confidence.BlockObservation
	for _, bt := range ds.Blocks {
		o := confidence.BlockObservation{Block: bt.Block}
		for lh, addrs := range bt.LastHopGroups() {
			cp := append([]iputil.Addr(nil), addrs...)
			iputil.SortAddrs(cp)
			o.Groups = append(o.Groups, hobbit.Group{LastHop: lh, Addrs: cp})
		}
		obs = append(obs, o)
	}
	for _, samples := range []int{200, 1000} {
		samples := samples
		b.Run(fmt.Sprintf("samples-%d", samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				builder := confidence.Builder{Samples: samples, MaxProbed: 30, Seed: 9}
				if _, err := builder.Build(obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaign runs the full measurement campaign over a slice of the
// universe, the Table 1 workload.
func BenchmarkCampaign(b *testing.B) {
	l := lab(b)
	out, err := l.Pipeline()
	if err != nil {
		b.Fatal(err)
	}
	blocks := out.Eligible
	if len(blocks) > 300 {
		blocks = blocks[:300]
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			net := probe.Instrument(l.Net, nil, "measure")
			c := &hobbit.Campaign{
				Measurer: &hobbit.Measurer{Net: net, Seed: 1},
				Dataset:  out.Dataset,
				Workers:  workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Run(context.Background(), blocks)
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary().Total != len(blocks) {
					b.Fatal("incomplete campaign")
				}
			}
			b.ReportMetric(float64(len(blocks)), "blocks/op")
			b.ReportMetric(float64(net.Probes())/float64(b.N)/float64(len(blocks)), "probes/block")
		})
	}
}

// BenchmarkPipelineStages runs the end-to-end pipeline with telemetry and
// reports the per-stage wall-clock split and probe load — the numbers
// every later performance PR regresses against.
func BenchmarkPipelineStages(b *testing.B) {
	cfg := netsim.DefaultConfig(1200)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	stageNS := make(map[string]float64)
	var probes, pings, blocks float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := telemetry.NewRegistry()
		net := probe.Instrument(probe.NewSimNetwork(w), reg, core.StageMeasure)
		p := &core.Pipeline{
			Net:       net,
			Scanner:   w,
			Blocks:    w.Blocks(),
			Seed:      7,
			Telemetry: reg,
		}
		out, err := p.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range reg.Spans() {
			stageNS[s.Name] += s.DurationMS * float64(time.Millisecond)
		}
		probes += float64(net.Probes())
		pings += float64(net.Pings())
		blocks += float64(len(out.Eligible))
	}
	b.StopTimer()
	n := float64(b.N)
	for stage, ns := range stageNS {
		b.ReportMetric(ns/n/float64(time.Millisecond), stage+"-ms/op")
	}
	b.ReportMetric(probes/blocks, "probes/block")
	b.ReportMetric((probes+pings)/n, "packets/op")
}
