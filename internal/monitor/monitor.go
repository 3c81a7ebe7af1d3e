// Package monitor is the continuous-monitoring mode: instead of
// re-running the whole pipeline when the network moves, a Monitor
// watches epochs advance, asks the probing surface which /24s could
// have changed routes since the previous epoch, reprobes exactly those,
// and repairs the aggregation and clustering incrementally.
//
// The headline contract is byte-identity (DESIGN.md §4j): every epoch's
// Output is exactly what a from-scratch core.Pipeline.Run would produce
// against the same surface pinned at that epoch. The incremental path
// is an execution strategy, never a different answer. Three properties
// of the stack carry it: per-/24 measurements are pure in the block
// (unchanged blocks' cached results equal a fresh measurement), the
// census ignores fault state (the /24 universe and eligibility are
// epoch-invariant), and the rolling clusterer (cluster.Rolling)
// guarantees per-epoch results identical to a from-scratch clustering
// of the same aggregate list.
package monitor

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"

	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// Stage names for monitor spans and probe attribution.
const (
	StageReprobe  = "monitor.reprobe"
	StageCluster  = "monitor.cluster"
	StageValidate = "monitor.validate"
)

// Source is the epoch feed: Advance pins the probing surface at an
// epoch, Changed answers which /24s could have changed routes between
// two pinned epochs. A conservative superset is always safe — extra
// blocks cost reprobes, never correctness; all=true degrades to a full
// reprobe.
type Source interface {
	Advance(epoch int)
	Changed(prev, next int) (blocks []iputil.Block24, all bool)
}

// WorldSource adapts a simulated world to the Source interface through
// the fault-epoch pin: the world's measurement epoch stays fixed (so
// availability draws — and with them the census — never move), while
// the fault schedule alone advances, and the schedule's own delta
// analysis bounds the changed set.
type WorldSource struct {
	W *netsim.World
}

func (s *WorldSource) Advance(epoch int) { s.W.SetFaultEpoch(epoch) }

func (s *WorldSource) Changed(prev, next int) ([]iputil.Block24, bool) {
	return s.W.EpochDelta(prev, next)
}

// EpochReport accounts one epoch's incremental work.
type EpochReport struct {
	// Epoch is the epoch index this report covers (0 = bootstrap).
	Epoch int
	// Changed is the size of the changed-block superset the source
	// reported; All whether it degraded to the full universe. Reprobed
	// is the eligible subset actually re-measured.
	Changed  int
	All      bool
	Reprobed int
	// Cluster is the rolling clusterer's work accounting.
	Cluster cluster.EpochStats
	// ValReused and ValRecomputed count validation-cache hits and the
	// clusters revalidated with live reprobes.
	ValReused, ValRecomputed int
	// Output is the epoch's full artifact set, byte-identical to a
	// from-scratch run at this epoch.
	Output *core.Output
}

// valEntry is one cached cluster validation: the outcome plus the
// member /24s whose reprobe responses it rests on, kept for eviction
// against later change sets.
type valEntry struct {
	v       cluster.Validation
	members []iputil.Block24
}

// Monitor runs the continuous-monitoring loop over a pipeline
// configuration. A Pipeline plus a Source makes it ready; the first
// Step bootstraps (census plus full measurement), later Steps cost work
// proportional to the churned blocks. End with Close.
type Monitor struct {
	// Pipeline supplies the probing surface, universe, seed, and run
	// options. The monitor never calls its Run: the bootstrap measures
	// through Pipeline.Measure, as Run does, and every Step drives the
	// same campaign, core.Aggregation, and ValidateClusters steps
	// incrementally.
	Pipeline *core.Pipeline
	// Source feeds epochs and change sets.
	Source Source

	epoch    int
	ds       *zmap.Dataset
	eligible []iputil.Block24
	results  map[iputil.Block24]*hobbit.BlockResult
	roll     *cluster.Rolling
	vals     map[string]valEntry
	// lastHops caches exhaustive validation reprobes across epochs,
	// evicted by the same conservative change sets as the validation
	// cache. Every recomputed cluster reprobes up to 2·ValidatePairs
	// members, and per-/24 measurement purity makes an unchanged
	// block's cached response exactly what a live reprobe would return.
	// A miss resumes the block's result in results, which the same
	// eviction keeps current, so it pays only for the destinations the
	// campaign left unprobed.
	lastHops map[iputil.Block24][]iputil.Addr
}

// Step advances to the next epoch: pins the source, reprobes the
// changed eligible blocks, replays aggregation over the merged result
// set, repairs the clustering, and revalidates only clusters touched by
// the change set. The returned report's Output is byte-identical to a
// from-scratch run at the new epoch; on error the report carries
// whatever completed.
func (m *Monitor) Step(ctx context.Context) (*EpochReport, error) {
	p := m.Pipeline
	if p == nil || m.Source == nil {
		return nil, errors.New("monitor: Monitor needs Pipeline and Source")
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	reg := p.Telemetry
	e := m.epoch
	m.Source.Advance(e)
	rep := &EpochReport{Epoch: e}

	if m.results == nil {
		// Bootstrap: the census streamed into a full campaign, the way
		// Run measures. The census ignores fault state, so its one sweep
		// serves every epoch — the universe and eligibility never move.
		// Commit the bootstrap only once its campaign completed: a
		// partial bootstrap would leave the next Step reprobing a change
		// set against results that were never measured.
		rep.All = true
		boot, err := p.Measure(ctx, StageReprobe, nil)
		if err != nil {
			return rep, err
		}
		m.ds, m.eligible, m.results = boot.Dataset, boot.Eligible, boot.Campaign.Blocks
		rep.Reprobed = len(m.eligible)
		if !p.SkipClustering {
			m.roll = (&cluster.Pipeline{Workers: p.ClusterWorkers, Telemetry: reg}).Rolling()
		}
		m.vals = make(map[string]valEntry)
		m.lastHops = make(map[iputil.Block24][]iputil.Addr)
	} else {
		changed, all := m.Source.Changed(e-1, e)
		rep.All = all
		rep.Changed = len(changed)
		var reprobe []iputil.Block24
		if all {
			rep.Changed = len(p.Blocks)
			reprobe = m.eligible
		} else {
			// Intersect with the eligible list in eligible order, so the
			// sub-campaign is a strict subsequence of the from-scratch one.
			changedSet := make(map[iputil.Block24]bool, len(changed))
			for _, b := range changed {
				changedSet[b] = true
			}
			for _, b := range m.eligible {
				if changedSet[b] {
					reprobe = append(reprobe, b)
				}
			}
		}
		m.dropStaleValidations(changed, all)
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Reprobed = len(reprobe)
		span := reg.StartSpan(StageReprobe)
		m.setStage(StageReprobe)
		campaign := &hobbit.Campaign{
			Measurer:  p.Measurer(false),
			Dataset:   m.ds,
			Workers:   p.Workers,
			Telemetry: reg,
			Progress:  p.Progress,
			Stage:     StageReprobe,
		}
		res, err := campaign.Run(ctx, reprobe)
		span.End()
		for b, br := range res.Blocks {
			m.results[b] = br
		}
		if err != nil {
			return rep, err
		}
	}
	reg.Counter("monitor.epochs").Inc()
	reg.Counter("monitor.changed_blocks").Add(int64(rep.Changed))
	reg.Counter("monitor.reprobed_blocks").Add(int64(rep.Reprobed))

	out, err := m.assemble(ctx, rep)
	rep.Output = out
	if err != nil {
		return rep, err
	}
	if p.ResultSink != nil {
		for _, b := range out.Campaign.Order {
			p.ResultSink(out.Campaign.Blocks[b])
		}
	}
	m.epoch++
	return rep, nil
}

// assemble replays aggregation over the merged per-block results and
// repairs clustering and validation through the steps Pipeline.Run
// uses, producing the epoch's Output.
func (m *Monitor) assemble(ctx context.Context, rep *EpochReport) (*core.Output, error) {
	p := m.Pipeline
	reg := p.Telemetry
	out := &core.Output{Dataset: m.ds, Eligible: m.eligible}
	blocks := make(map[iputil.Block24]*hobbit.BlockResult, len(m.results))
	for b, br := range m.results {
		blocks[b] = br
	}
	out.Campaign = &hobbit.Result{Blocks: blocks, Order: m.eligible}

	// Aggregation replay: cheap string grouping over cached results, in
	// campaign order.
	span := reg.StartSpan(core.StageAggregate)
	agg := core.NewAggregation(nil)
	for _, b := range m.eligible {
		agg.Add(blocks[b])
	}
	agg.Finish(out, reg)
	span.End()
	if p.SkipClustering {
		out.Final = out.Aggregates
		return out, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	span = reg.StartSpan(StageCluster)
	clRes, stats := m.roll.Epoch(out.Aggregates)
	out.Clustering = clRes
	rep.Cluster = stats
	reg.Counter("monitor.components_reused").Add(int64(stats.Reused))
	reg.Counter("monitor.components_recomputed").Add(int64(stats.Recomputed))
	span.End()
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Validation, with the monitor's caches behind the hook. Entries
	// whose members appeared in any change set since computation were
	// already evicted, so a hit is provably what a live revalidation
	// would return.
	rp := &reprober{m: p.Measurer(true), ds: m.ds, mon: m}
	err := p.ValidateClusters(ctx, StageValidate, out, agg, rp)
	clusters := out.Clustering.Clusters
	rep.ValReused = rp.hits
	rep.ValRecomputed = len(clusters) - rp.hits
	reg.Counter("monitor.validations_reused").Add(int64(rep.ValReused))
	reg.Counter("monitor.validations_recomputed").Add(int64(rep.ValRecomputed))
	if err != nil {
		// Cancelled mid-validation: keep the old cache (it stays sound —
		// eviction already happened against this epoch's change set).
		return out, err
	}
	// Rebuild the cache from this epoch's validations only, so clusters
	// that dissolved do not accumulate.
	next := make(map[string]valEntry, len(clusters))
	for _, c := range clusters {
		next[valKey(c)] = valEntry{v: out.Validations[c.ID], members: c.Blocks24()}
	}
	m.vals = next
	return out, nil
}

// dropStaleValidations evicts validation-cache entries whose member
// /24s intersect the epoch's change set (all of them when the delta
// degraded to All) — their reprobe responses may differ this epoch —
// and the changed blocks' cached reprobe responses with them.
func (m *Monitor) dropStaleValidations(changed []iputil.Block24, all bool) {
	if all {
		clear(m.vals)
		clear(m.lastHops)
		return
	}
	if len(changed) == 0 {
		return
	}
	changedSet := make(map[iputil.Block24]bool, len(changed))
	for _, b := range changed {
		changedSet[b] = true
		delete(m.lastHops, b)
	}
	for k, ent := range m.vals {
		for _, b := range ent.members {
			if changedSet[b] {
				delete(m.vals, k)
				break
			}
		}
	}
}

// valKey is a cluster's validation-cache identity: the ID (the reprobe
// pair sampling is keyed by it) plus the member /24 list.
func valKey(c *cluster.Cluster) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(c.ID))
	for _, blk := range c.Blocks24() {
		b.WriteByte(0)
		b.WriteString(blk.String())
	}
	return b.String()
}

// Epoch returns the next epoch Step will pin (equivalently, how many
// epochs have completed).
func (m *Monitor) Epoch() int { return m.epoch }

// Run steps through n epochs and returns their reports; on error the
// reports completed so far are returned alongside it.
func (m *Monitor) Run(ctx context.Context, n int) ([]*EpochReport, error) {
	var reps []*EpochReport
	for i := 0; i < n; i++ {
		rep, err := m.Step(ctx)
		if rep != nil {
			reps = append(reps, rep)
		}
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// Close drops the rolling clusterer's state. The Monitor is dead
// afterwards.
func (m *Monitor) Close() {
	m.roll = nil
}

func (m *Monitor) setStage(stage string) {
	if s, ok := m.Pipeline.Net.(interface{ SetStage(string) }); ok {
		s.SetStage(stage)
	}
}

// reprober is the monitor's core.ValidationCache. Validation serves a
// cluster validation from the cross-epoch cache, keyed by cluster
// identity — ID plus member /24s, because the reprobe pair sampling is
// keyed by cluster ID. Reprobe adapts the exhaustive measurement
// strategy exactly as the pipeline's validation stage does, resuming
// the block's current measurement, but consults the cross-epoch reprobe
// cache first: a block absent from every change set since its last
// reprobe answers from the cache (purity makes the bytes identical), so
// a revalidated cluster only pays live probes for its churned members.
type reprober struct {
	m   *hobbit.Measurer
	ds  *zmap.Dataset
	mon *Monitor
	// hits counts Validation cache hits; Validation runs serially,
	// before the fan-out.
	hits int

	mu sync.Mutex
}

func (r *reprober) Validation(c *cluster.Cluster) (cluster.Validation, bool) {
	ent, ok := r.mon.vals[valKey(c)]
	if ok {
		r.hits++
	}
	return ent.v, ok
}

func (r *reprober) Reprobe(b iputil.Block24) []iputil.Addr {
	r.mu.Lock()
	lhs, ok := r.mon.lastHops[b]
	r.mu.Unlock()
	if !ok {
		// A concurrent miss on the same block measures twice; purity makes
		// both answers identical, so last-write-wins is safe.
		lhs = r.m.Resume(r.mon.results[b], r.ds.ActivesBy26(b)).LastHops
		r.mu.Lock()
		r.mon.lastHops[b] = lhs
		r.mu.Unlock()
	}
	// Callers sort the returned slice in place, and concurrent
	// validations may share a member: hand each its own copy.
	if lhs == nil {
		return nil
	}
	out := make([]iputil.Addr, len(lhs))
	copy(out, lhs)
	return out
}
