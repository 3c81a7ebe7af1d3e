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
	// ValReused and ValRecomputed count the validations served from the
	// cache and the clusters validated again.
	ValReused, ValRecomputed int
	// Output is the epoch's full artifact set, byte-identical to a
	// from-scratch run at this epoch.
	Output *core.Output
}

// Monitor runs the continuous-monitoring loop over a pipeline
// configuration. A Pipeline plus a Source makes it ready; the first
// Step bootstraps (census plus full measurement), later Steps cost work
// proportional to the churned blocks. End with Close.
type Monitor struct {
	// Pipeline supplies the probing surface, universe, seed, and run
	// options. The monitor never calls its Run: the bootstrap measures
	// through Pipeline.Measure, as Run does, later Steps re-measure
	// through Pipeline.Remeasure, and every Step drives the same
	// core.Aggregation and ValidateClusters steps incrementally.
	Pipeline *core.Pipeline
	// Source feeds epochs and change sets.
	Source Source

	epoch    int
	ds       *zmap.Dataset
	eligible []iputil.Block24
	results  map[iputil.Block24]*hobbit.BlockResult
	roll     *cluster.Rolling
	// cache carries validations and exhaustive reprobe answers across
	// epochs, evicted by the change sets that pick the blocks to
	// reprobe. Every recomputed cluster reprobes up to 2·ValidatePairs
	// members, and a miss resumes the block's current result.
	cache core.ValidationCache
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
	} else {
		changed, all := m.Source.Changed(e-1, e)
		rep.All = all
		rep.Changed = len(changed)
		var reprobe []iputil.Block24
		var changedSet map[iputil.Block24]bool
		if all {
			rep.Changed = len(p.Blocks)
			reprobe = m.eligible
		} else {
			// Intersect with the eligible list in eligible order, so the
			// sub-campaign is a strict subsequence of the from-scratch one.
			changedSet = make(map[iputil.Block24]bool, len(changed))
			for _, b := range changed {
				changedSet[b] = true
			}
			for _, b := range m.eligible {
				if changedSet[b] {
					reprobe = append(reprobe, b)
				}
			}
		}
		m.cache.Evict(changedSet, all)
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Reprobed = len(reprobe)
		res, err := p.Remeasure(ctx, StageReprobe, m.ds, reprobe)
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

	// Validation through the cross-epoch cache. Entries resting on a /24
	// in any change set since they were computed were already evicted, so
	// a hit is what a live revalidation would return.
	reused, err := p.ValidateClusters(ctx, StageValidate, out, agg, &m.cache)
	rep.ValReused = reused
	rep.ValRecomputed = len(out.Clustering.Clusters) - reused
	reg.Counter("monitor.validations_reused").Add(int64(rep.ValReused))
	reg.Counter("monitor.validations_recomputed").Add(int64(rep.ValRecomputed))
	return out, err
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
