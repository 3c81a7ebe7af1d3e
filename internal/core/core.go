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
	"encoding/binary"
	"errors"
	"slices"
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
	// the goroutine that called Run (never concurrently) and must not
	// mutate the result: validation later resumes the block's
	// measurement from it.
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
// hobbit.DefaultMinActive, the paper's 4).
func (p *Pipeline) MinActiveOrDefault() int {
	if p.MinActive > 0 {
		return p.MinActive
	}
	return hobbit.DefaultMinActive
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

// campaign builds the measurement campaign of the named stage and
// attributes the probes that follow to it. Measure and Remeasure run it,
// so every campaign is configured in this one place.
func (p *Pipeline) campaign(stage string) *hobbit.Campaign {
	p.setStage(stage)
	return &hobbit.Campaign{
		Measurer:  p.Measurer(false),
		Workers:   p.Workers,
		Telemetry: p.Telemetry,
		Progress:  p.Progress,
		Stage:     stage,
	}
}

// Check rejects a Pipeline that Run cannot execute: one without a
// probing surface or a census scanner, an empty universe, invalid
// Options or StreamChunk. Run and the monitor's Step call it first.
func (p *Pipeline) Check() error {
	if p.Net == nil || p.Scanner == nil {
		return errors.New("core: Pipeline needs Net and Scanner")
	}
	if len(p.Blocks) == 0 {
		return errors.New("core: no blocks to measure")
	}
	if err := p.Options.Validate(); err != nil {
		return err
	}
	return ValidateStreamChunk(p.StreamChunk)
}

// Measure streams the census into the measurement campaign, the stages
// Run and the monitor's bootstrap start with. The campaign's feed
// (hobbit.Campaign.RunFeed) reads zmap.Stream's chunks, merges each into
// the dataset, and hands out its eligible blocks with their chunk-local
// actives; chunks arrive in block order, so Eligible and the campaign
// Order are the same at any chunk size and worker count. stage names the
// campaign's span, probe attribution and progress events. sink, when
// non-nil, receives every result in campaign order on the calling
// goroutine. p must pass Check. Measure fills Output's Dataset, Eligible
// and Campaign; on cancellation Eligible and Campaign.Order are prefixes
// of the full lists, returned with ctx.Err().
func (p *Pipeline) Measure(ctx context.Context, stage string, sink func(*hobbit.BlockResult)) (*Output, error) {
	reg := p.Telemetry
	censusSpan := reg.StartSpan(StageCensus)
	defer censusSpan.End() // idempotent; covers cancelled sweeps too
	span := reg.StartSpan(stage)
	defer span.End()
	campaign := p.campaign(stage)

	chunks := zmap.Stream(ctx, p.Scanner, p.Blocks, zmap.StreamOptions{
		Workers:   p.CensusWorkers,
		ChunkSize: p.StreamChunk,
		Telemetry: reg,
	})
	out := &Output{Dataset: zmap.NewDataset()}
	var chunk zmap.Chunk
	var queue []iputil.Block24
	next := func() (hobbit.FeedItem, bool) {
		for len(queue) == 0 {
			var ok bool
			if chunk, ok = <-chunks; !ok {
				// The census ends when its last eligible block has
				// been handed out; the eligibility counter lands here,
				// after the full universe was filtered.
				reg.Counter("census.eligible_blocks").Add(int64(len(out.Eligible)))
				censusSpan.End()
				return hobbit.FeedItem{}, false
			}
			out.Dataset.MergeChunk(chunk)
			queue = chunk.Data.EligibleBlocks(chunk.Blocks, p.MinActiveOrDefault())
			out.Eligible = append(out.Eligible, queue...)
		}
		b := queue[0]
		queue = queue[1:]
		return hobbit.FeedItem{Block: b, By26: chunk.Data.ActivesBy26(b)}, true
	}
	res, err := campaign.RunFeed(ctx, next, 0, sink)
	out.Campaign = res
	// A cancelled campaign stops reading the census; draining it waits
	// for the sweep to stop, so no scan worker outlives the run.
	for range chunks {
	}
	return out, err
}

// Remeasure measures blocks again, in the given order, with the census
// actives in ds: the monitor's incremental epochs re-measure their
// churned eligible /24s this way. stage names the campaign's span, probe
// attribution and progress events. Each result equals the one Measure
// would return for the block against the same surface. On cancellation
// the result holds the measured prefix, returned with ctx.Err().
func (p *Pipeline) Remeasure(ctx context.Context, stage string, ds *zmap.Dataset, blocks []iputil.Block24) (*hobbit.Result, error) {
	span := p.Telemetry.StartSpan(stage)
	defer span.End()
	campaign := p.campaign(stage)
	campaign.Dataset = ds
	return campaign.Run(ctx, blocks)
}

// Run executes the pipeline with its stages overlapped: Measure streams
// the census into the campaign, the campaign's in-order result stream
// drives the aggregation, and every aggregate delta grows the streaming
// clusterer's similarity graph while the campaign is still probing
// (DESIGN.md §4d). The eligible list, the campaign Order and the
// aggregation grouping are the same at any chunk size and worker count.
// MCL clustering and validation run once the last aggregate is in,
// because both need the complete set.
//
// Peak memory is bounded by the census window plus the campaign window;
// the merged dataset and the campaign result are still retained,
// because validation reprobes against the full census. On cancellation
// Run returns the Output artifacts completed so far together with
// ctx.Err(), so a partial run remains inspectable.
func (p *Pipeline) Run(ctx context.Context) (*Output, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	reg := p.Telemetry

	// Clustering streams too: Run feeds the clusterer one Observe per
	// aggregate delta, so graph construction overlaps the campaign (nil
	// when the run skips clustering).
	var str *cluster.Streamer
	if !p.SkipClustering {
		str = (&cluster.Pipeline{Workers: p.ClusterWorkers, Telemetry: reg}).Stream()
	}
	agg := NewAggregation(str)
	// The pipelined stages overlap, so their spans do too: each covers
	// the window its stage was active in, and aggregation starts with
	// the first result.
	var aggSpan *telemetry.Span
	out, err := p.Measure(ctx, StageMeasure, func(br *hobbit.BlockResult) {
		if aggSpan == nil {
			aggSpan = reg.StartSpan(StageAggregate)
		}
		if p.ResultSink != nil {
			p.ResultSink(br)
		}
		agg.Add(br)
	})
	if aggSpan == nil {
		aggSpan = reg.StartSpan(StageAggregate)
	}
	if err != nil {
		aggSpan.End()
		return out, err
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
	_, err = p.ValidateClusters(ctx, StageValidate, out, agg, nil)
	return out, err
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

// ValidationCache carries Section 6.5 work from one ValidateClusters
// call to the next over the same census, for a driver that validates
// epoch after epoch. It holds the validations of the last call that
// completed, keyed by cluster identity (the ID, which keys the reprobe
// pair sampling, plus the member /24s), and each /24's exhaustive
// reprobe answer. An entry is sound while none of the /24s it rests on
// has changed, because a /24's measurement is pure in the block; Evict
// drops the others. The zero value is empty.
type ValidationCache struct {
	vals map[string]cachedValidation

	mu       sync.Mutex // guards lastHops: the validation pool shares it
	lastHops map[iputil.Block24][]iputil.Addr
}

// cachedValidation is one cached cluster validation and the member /24s
// whose reprobe answers it rests on.
type cachedValidation struct {
	v       cluster.Validation
	members []iputil.Block24
}

// Evict drops the validations that rest on a /24 in changed, and those
// /24s' reprobe answers; all drops everything.
func (c *ValidationCache) Evict(changed map[iputil.Block24]bool, all bool) {
	if all {
		clear(c.vals)
		clear(c.lastHops)
		return
	}
	if len(changed) == 0 {
		return
	}
	for b := range changed {
		delete(c.lastHops, b)
	}
	for k, ent := range c.vals {
		for _, b := range ent.members {
			if changed[b] {
				delete(c.vals, k)
				break
			}
		}
	}
}

// validationKey is a cluster's identity in the cache: its ID in 8 bytes,
// then each sorted member /24 in 3.
func validationKey(id int, members []iputil.Block24) string {
	key := binary.BigEndian.AppendUint64(make([]byte, 0, 8+3*len(members)), uint64(id))
	for _, b := range members {
		key = append(key, byte(b>>16), byte(b>>8), byte(b))
	}
	return string(key)
}

// ValidateClusters is the Section 6.5 step shared by Run and the
// monitor: it validates out.Clustering's clusters by exhaustive
// reprobing, fills out.Validations and out.Validated, and merges the
// accepted clusters into out.Final, drawing merged last-hop sets from
// agg's interner. stage names the span, the probe attribution, and the
// pool's telemetry. Every reprobe resumes the member's campaign
// measurement in out.Campaign from the first destination the campaign
// left unprobed, with out.Dataset's actives, so validation never resends
// a campaign packet.
//
// cache may be nil, as in Run: every cluster then validates live. With a
// cache, a cluster it holds is not validated again, the reprobes of the
// others answer from its per-/24 answers before probing, and a completed
// call leaves it holding this call's validations and no others. The
// returned count is the validations served from the cache.
//
// Clusters validate independently (each owns its member /24s, and
// reprobe randomness is keyed by cluster ID), so the misses fan out over
// the pool; results land in per-cluster slots and merge in cluster-ID
// order, so maps and counters tally identically whether the run was
// serial or sharded. The "validate.…" work counters count only the
// validations this call computed. On cancellation the merged prefix stays
// inspectable, but no final block list is produced and the cache keeps
// its validations.
func (p *Pipeline) ValidateClusters(ctx context.Context, stage string, out *Output, agg *Aggregation, cache *ValidationCache) (reused int, err error) {
	reg := p.Telemetry
	span := reg.StartSpan(stage)
	defer span.End()
	p.setStage(stage)
	rp := &reprober{m: p.Measurer(true), ds: out.Dataset, campaign: out.Campaign.Blocks, cache: cache}
	if cache != nil && cache.lastHops == nil {
		cache.lastHops = make(map[iputil.Block24][]iputil.Addr)
	}
	clusters := out.Clustering.Clusters
	vals := make([]cluster.Validation, len(clusters))
	done := make([]bool, len(clusters))
	cached := make([]bool, len(clusters))
	// With a cache, each cluster's members and key are built once, for
	// both the lookup and the store.
	var members [][]iputil.Block24
	var keys []string
	if cache != nil {
		members = make([][]iputil.Block24, len(clusters))
		keys = make([]string, len(clusters))
	}
	var misses []int
	for i, c := range clusters {
		if cache != nil {
			members[i] = c.Blocks24()
			keys[i] = validationKey(c.ID, members[i])
			var ent cachedValidation
			if ent, cached[i] = cache.vals[keys[i]]; cached[i] {
				vals[i], done[i] = ent.v, true
				reused++
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
		return reused, perr
	}
	if cache != nil {
		// Keep only this call's validations, so clusters that dissolved
		// do not accumulate.
		cache.vals = make(map[string]cachedValidation, len(clusters))
		for i := range clusters {
			cache.vals[keys[i]] = cachedValidation{v: vals[i], members: members[i]}
		}
	}
	out.Final = cluster.ApplyValidatedInterned(out.Clustering, out.Validated, agg.interner)
	reg.Counter("validate.final_blocks").Add(int64(len(out.Final)))
	return reused, nil
}

// reprober adapts the Section 6.5 modified probing strategy to the
// cluster.Reprober interface. It resumes each block's campaign
// measurement, so a reprobe sends only the packets past the campaign's
// last destination (hobbit.Measurer.Resume). With a cache it answers a
// block the cache holds from there and stores the answers it measures.
type reprober struct {
	m        *hobbit.Measurer
	ds       *zmap.Dataset
	campaign map[iputil.Block24]*hobbit.BlockResult
	cache    *ValidationCache
}

// Reprobe measures the block exhaustively and returns its observed
// last-hop set (nil when the block no longer answers usefully).
func (r *reprober) Reprobe(b iputil.Block24) []iputil.Addr {
	c := r.cache
	if c == nil {
		return r.m.Resume(r.campaign[b], r.ds.ActivesBy26(b)).LastHops
	}
	c.mu.Lock()
	lhs, ok := c.lastHops[b]
	c.mu.Unlock()
	if !ok {
		// A concurrent miss on the same block measures twice; purity
		// makes both answers identical, so last-write-wins is safe.
		lhs = r.m.Resume(r.campaign[b], r.ds.ActivesBy26(b)).LastHops
		c.mu.Lock()
		c.lastHops[b] = lhs
		c.mu.Unlock()
	}
	// cluster.Validate sorts the answer in place: hand out a copy, so
	// no caller writes the cached slice.
	return slices.Clone(lhs)
}
