// Package core is the public face of the Hobbit reproduction: one Pipeline
// that runs the paper end to end — census scan, per-/24 homogeneity
// measurement, identical-set aggregation, MCL clustering of similar
// blocks, and reprobe validation — over any probing surface.
//
// The stages can also be driven individually through the packages they
// live in (zmap, hobbit, aggregate, cluster); Pipeline wires them together
// with the paper's defaults. A run is observable through the optional
// telemetry registry (per-stage spans, probe/ping counters, progress
// events) and cancellable through its context: the census, campaign, and
// validation stop where ctx was cancelled, and Run returns the artifacts
// completed so far alongside ctx.Err().
package core

import (
	"context"
	"errors"
	"sync"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// Stage names used for spans and per-stage probe attribution.
const (
	StageCensus    = "census"
	StageMeasure   = "measure"
	StageAggregate = "aggregate"
	StageCluster   = "cluster"
	StageValidate  = "validate"
)

// Pipeline configures an end-to-end run.
type Pipeline struct {
	// Net answers measurement-time probes; Scanner answers census-time
	// echo requests. A netsim.World (wrapped in probe.SimNetwork for
	// Net) satisfies both. Wrapping Net in probe.Instrument additionally
	// attributes every probe to the pipeline stage that sent it.
	Net     probe.Network
	Scanner zmap.Scanner
	// Blocks is the /24 universe to consider.
	Blocks []iputil.Block24
	// Seed drives the deterministic shuffles and samples.
	Seed uint64
	// Options are the serializable run knobs (worker bounds, MDA tuning,
	// eligibility threshold, validation budget, clustering switch). The
	// embedding promotes every knob, so p.Workers and friends read and
	// assign exactly as they did when the fields lived on Pipeline
	// directly; construction sites spell the nested literal.
	Options
	// StreamChunk is the census chunk size in /24s: Run sweeps the
	// census as a zmap.Stream of StreamChunk-block chunks pipelined
	// against the measurement campaign, incremental aggregation, and
	// streaming clustering, so no stage holds the whole universe's
	// intermediates. 0 means a size derived from the input (see
	// zmap.StreamOptions.ChunkSize). It is an execution strategy like the
	// worker counts, not behaviour: every artifact and counter is
	// byte-identical at any chunk size (DESIGN.md §4d), which is why it
	// lives on Pipeline next to the other local resource-shaping fields
	// rather than in the serializable Options.
	StreamChunk int
	// ResultSink, when non-nil, receives every per-/24 measurement result
	// in campaign order as soon as it is final — before clustering and
	// validation run — so callers can stream results to disk instead of
	// holding a rendered report for the whole run. The callback runs on
	// the collector goroutine (never concurrently) and must not mutate
	// the result: validation later resumes the block's measurement
	// from it.
	ResultSink func(*hobbit.BlockResult)
	// Terminator overrides the hierarchical-sufficiency rule (nil uses
	// the MDA stopping rule; a confidence.Table reproduces Figure 4's).
	Terminator hobbit.Terminator
	// Telemetry records per-stage spans, counters, and histograms for
	// the run; nil disables observation. Counter state is deterministic
	// for a fixed Seed (see telemetry.Registry.MarshalCounters).
	Telemetry *telemetry.Registry
	// Progress receives live measurement progress events; nil disables
	// them.
	Progress telemetry.Sink
}

// Output carries every intermediate and final artifact of a run.
type Output struct {
	// Dataset is the census result; Eligible the /24s meeting the
	// selection criteria, in block order. On cancellation Eligible and
	// Campaign.Order are prefixes of the full lists: the census and the
	// campaign stop where the context was cancelled.
	Dataset  *zmap.Dataset
	Eligible []iputil.Block24
	// Campaign is the per-/24 measurement result.
	Campaign *hobbit.Result
	// Aggregates are the Section 5 identical-set blocks.
	Aggregates []*aggregate.Block
	// Clustering and Validations are the Section 6 artifacts (nil when
	// SkipClustering). Validated records which clusters were accepted
	// for merging.
	Clustering  *cluster.Result
	Validations map[int]cluster.Validation
	Validated   map[int]bool
	// Final is the post-validation block list: validated clusters
	// merged, everything else passed through.
	Final []*aggregate.Block
}

// MinActiveOrDefault resolves the census eligibility threshold (0 means
// the paper's default of 4). The monitor replays the census selection
// epoch over epoch and must agree with Run on it.
func (p *Pipeline) MinActiveOrDefault() int {
	if p.MinActive > 0 {
		return p.MinActive
	}
	return 4
}

// Measurer builds the per-block Measurer shared by the measurement
// campaign (exhaustive=false) and the Section 6.5 reprobe validation
// (exhaustive=true), so every option — probing surface, MDA tuning,
// terminator, eligibility threshold, seed — is set in exactly one place
// and incremental drivers measure byte-identically to a from-scratch run.
func (p *Pipeline) Measurer(exhaustive bool) *hobbit.Measurer {
	return &hobbit.Measurer{
		Net:        p.Net,
		Opts:       p.MDA,
		Term:       p.Terminator,
		MinActive:  p.MinActiveOrDefault(),
		Seed:       p.Seed,
		Exhaustive: exhaustive,
	}
}

// setStage attributes subsequent probes on the probing surface to the
// named stage, when the surface supports attribution.
func (p *Pipeline) setStage(stage string) {
	if s, ok := p.Net.(interface{ SetStage(string) }); ok {
		s.SetStage(stage)
	}
}

// Run executes the pipeline with its stages overlapped: census chunks
// stream off zmap.Stream, a feeder filters each chunk for eligibility and
// hands the eligible blocks — with their chunk-local actives — to the
// campaign workers, the campaign's in-order result stream drives the
// aggregation, and every aggregate delta grows the streaming clusterer's
// similarity graph while the campaign is still probing (DESIGN.md §4d).
// Chunks arrive in block order, so the eligible list, the campaign Order,
// the low-confidence exclusions, and the aggregation grouping are the
// same at any chunk size and worker count. MCL clustering and validation
// run once the last aggregate is in, because both need the complete set.
//
// Peak memory is bounded by the stream window plus the campaign handout
// window; the merged dataset and the campaign result are still retained,
// because validation reprobes against the full census. On cancellation
// Run returns the Output artifacts completed so far together with
// ctx.Err(), so a partial run remains inspectable.
func (p *Pipeline) Run(ctx context.Context) (*Output, error) {
	if p.Net == nil || p.Scanner == nil {
		return nil, errors.New("core: Pipeline needs Net and Scanner")
	}
	if len(p.Blocks) == 0 {
		return nil, errors.New("core: no blocks to measure")
	}
	if err := p.Options.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateStreamChunk(p.StreamChunk); err != nil {
		return nil, err
	}
	reg := p.Telemetry
	out := &Output{}

	// The pipelined stages overlap, so their spans do too: each span
	// covers the window its stage was active in.
	censusSpan := reg.StartSpan(StageCensus)
	measureSpan := reg.StartSpan(StageMeasure)
	p.setStage(StageMeasure)

	// The stream's context is cancelled as soon as the campaign stops
	// consuming (error or not), so scan workers never outlive the run.
	sctx, cancelScan := context.WithCancel(ctx)
	defer cancelScan()
	chunks := zmap.Stream(sctx, p.Scanner, p.Blocks, zmap.StreamOptions{
		Workers:   p.CensusWorkers,
		ChunkSize: p.StreamChunk,
		Telemetry: reg,
	})

	// The feeder owns dataset and eligible until feedWG.Wait below, then
	// hands them to the collector goroutine (this one) with the Wait as
	// the memory barrier.
	dataset := zmap.NewDataset()
	var eligible []iputil.Block24
	feed := make(chan hobbit.FeedItem)
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		defer close(feed)
		defer censusSpan.End() // idempotent; covers cancelled sweeps too
		for c := range chunks {
			dataset.MergeChunk(c)
			for _, b := range c.Data.EligibleBlocks(c.Blocks, p.MinActiveOrDefault()) {
				eligible = append(eligible, b)
				select {
				case feed <- hobbit.FeedItem{Block: b, By26: c.Data.ActivesBy26(b)}:
				case <-ctx.Done():
					return
				}
			}
		}
		// The census stage ends when its last chunk has been handed
		// over; the eligibility counter lands here, after the full
		// universe was filtered.
		reg.Counter("census.eligible_blocks").Add(int64(len(eligible)))
		censusSpan.End()
	}()

	// Clustering streams too: Run feeds the clusterer one Observe per
	// aggregate delta, so graph construction overlaps the campaign (nil
	// when the run skips clustering).
	var str *cluster.Streamer
	if !p.SkipClustering {
		str = (&cluster.Pipeline{Workers: p.ClusterWorkers, Telemetry: reg}).Stream()
	}
	agg := NewAggregation(str)
	aggSpan := reg.StartSpan(StageAggregate)
	campaign := &hobbit.Campaign{
		Measurer:  p.Measurer(false),
		Workers:   p.Workers,
		Telemetry: reg,
		Progress:  p.Progress,
		Stage:     StageMeasure,
	}
	res, cerr := campaign.RunStream(ctx, feed, func(br *hobbit.BlockResult) {
		if p.ResultSink != nil {
			p.ResultSink(br)
		}
		agg.Add(br)
	})
	cancelScan()
	feedWG.Wait()
	out.Dataset = dataset
	out.Eligible = eligible
	out.Campaign = res
	measureSpan.End()
	if cerr != nil {
		aggSpan.End()
		return out, cerr
	}
	agg.Finish(out, reg)
	aggSpan.End()

	if p.SkipClustering {
		out.Final = out.Aggregates
		return out, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	span := reg.StartSpan(StageCluster)
	out.Clustering = str.Finish()
	span.End()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, p.ValidateClusters(ctx, StageValidate, out, agg, nil)
}

// Aggregation is the Section 5 step shared by Run and the monitor: it
// folds per-/24 results, in campaign order, into identical-set
// aggregates. Only homogeneous verdicts aggregate. One interner backs
// both the aggregation and the post-validation merge, so every block
// that shares a last-hop set — before and after cluster merging — shares
// one canonical slice.
type Aggregation struct {
	interner *aggregate.Interner
	builder  *aggregate.Builder
	str      *cluster.Streamer
	kept     int
}

// NewAggregation starts an aggregation. str, when non-nil, observes every
// aggregate delta in campaign order — the streaming clusterer's input.
func NewAggregation(str *cluster.Streamer) *Aggregation {
	in := aggregate.NewInterner()
	return &Aggregation{interner: in, builder: aggregate.NewBuilder(in), str: str}
}

// Add folds one measured /24.
func (a *Aggregation) Add(br *hobbit.BlockResult) {
	if !br.Class.Homogeneous() {
		return
	}
	a.kept++
	blk, isNew := a.builder.Add(br)
	if a.str != nil && blk != nil {
		a.str.Observe(blk, isNew)
	}
}

// Finish stores the aggregates in out and bumps the "aggregate.…"
// counters.
func (a *Aggregation) Finish(out *Output, reg *telemetry.Registry) {
	out.Aggregates = a.builder.Finish()
	reg.Counter("aggregate.homogeneous_in").Add(int64(a.kept))
	reg.Counter("aggregate.blocks_out").Add(int64(len(out.Aggregates)))
}

// ValidationCache is the hook an incremental driver passes to
// ValidateClusters: Validation returns a validation computed earlier for
// an identical cluster, when it is still sound, and Reprobe answers the
// exhaustive reprobes of the clusters that miss.
type ValidationCache interface {
	cluster.Reprober
	Validation(c *cluster.Cluster) (cluster.Validation, bool)
}

// ValidateClusters is the Section 6.5 step shared by Run and the
// monitor: it validates out.Clustering's clusters by exhaustive
// reprobing, fills out.Validations and out.Validated, and merges the
// accepted clusters into out.Final, drawing merged last-hop sets from
// agg's interner. stage names the span, the probe attribution, and the
// pool's telemetry. cache may be nil: every cluster then reprobes live,
// each member resuming its campaign measurement in out.Campaign from
// the first destination the campaign left unprobed, with out.Dataset's
// actives, so validation never resends a campaign packet. Otherwise
// cache's hits are used as they are and its Reprobe answers the misses.
//
// Clusters validate independently (each owns its member /24s, and
// reprobe randomness is keyed by cluster ID), so the misses fan out over
// the pool; results land in per-cluster slots and merge in cluster-ID
// order, so maps and counters tally identically whether the run was
// serial or sharded. The "validate.…" work counters count only the
// validations this call computed. On cancellation the merged prefix stays
// inspectable, but no final block list is produced.
func (p *Pipeline) ValidateClusters(ctx context.Context, stage string, out *Output, agg *Aggregation, cache ValidationCache) error {
	reg := p.Telemetry
	span := reg.StartSpan(stage)
	defer span.End()
	p.setStage(stage)
	var rp cluster.Reprober = cache
	if cache == nil {
		rp = &exhaustiveReprober{m: p.Measurer(true), ds: out.Dataset, campaign: out.Campaign.Blocks}
	}
	clusters := out.Clustering.Clusters
	vals := make([]cluster.Validation, len(clusters))
	done := make([]bool, len(clusters))
	cached := make([]bool, len(clusters))
	var misses []int
	for i, c := range clusters {
		if cache != nil {
			if vals[i], cached[i] = cache.Validation(c); cached[i] {
				done[i] = true
				continue
			}
		}
		misses = append(misses, i)
	}
	pool := parallel.Pool{Workers: p.ClusterWorkers, Telemetry: reg, Stage: stage}
	perr := pool.ForEach(ctx, len(misses), func(k int) {
		i := misses[k]
		vals[i] = cluster.Validate(clusters[i], rp, p.ValidatePairs, p.Seed)
		done[i] = true
	})

	pairsChecked := reg.Counter("validate.pairs_checked")
	identicalPairs := reg.Counter("validate.identical_pairs")
	reprobed := reg.Counter("validate.blocks_reprobed")
	accepted := reg.Counter("validate.clusters_validated")
	out.Validations = make(map[int]cluster.Validation, len(clusters))
	out.Validated = make(map[int]bool)
	for i, c := range clusters {
		if !done[i] {
			continue
		}
		v := vals[i]
		out.Validations[c.ID] = v
		if v.Passes() {
			out.Validated[c.ID] = true
		}
		if cached[i] {
			continue
		}
		pairsChecked.Add(int64(v.PairsChecked))
		identicalPairs.Add(int64(v.IdenticalPairs))
		reprobed.Add(int64(v.Reprobed))
		if v.Passes() {
			accepted.Inc()
		}
	}
	if perr != nil {
		return perr
	}
	out.Final = cluster.ApplyValidatedInterned(out.Clustering, out.Validated, agg.interner)
	reg.Counter("validate.final_blocks").Add(int64(len(out.Final)))
	return nil
}

// exhaustiveReprober adapts the Section 6.5 modified probing strategy to
// the cluster.Reprober interface. It resumes each block's campaign
// measurement, so a reprobe sends only the packets past the campaign's
// last destination (hobbit.Measurer.Resume).
type exhaustiveReprober struct {
	m        *hobbit.Measurer
	ds       *zmap.Dataset
	campaign map[iputil.Block24]*hobbit.BlockResult
}

// Reprobe measures the block exhaustively and returns its observed
// last-hop set (nil when the block no longer answers usefully).
func (r *exhaustiveReprober) Reprobe(b iputil.Block24) []iputil.Addr {
	return r.m.Resume(r.campaign[b], r.ds.ActivesBy26(b)).LastHops
}
