package core

import (
	"context"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/zmap"
)

// stagedRun is the barrier-staged composition Run is checked against:
// every stage runs to completion before the next begins — the whole
// census collected, the campaign run over the eligible list, the
// aggregation folded from the finished campaign, clustering run over the
// finished aggregate list, and validation fanned out at the end, each
// member reprobed from scratch. It records the same artifacts and
// counters as Run.
func stagedRun(t *testing.T, p *Pipeline) *Output {
	t.Helper()
	ctx := context.Background()
	reg := p.Telemetry
	out := &Output{}
	out.Dataset = zmap.Collect(zmap.Stream(ctx, p.Scanner, p.Blocks, zmap.StreamOptions{Workers: p.CensusWorkers, Telemetry: reg}))
	out.Eligible = out.Dataset.EligibleBlocks(p.Blocks, p.MinActiveOrDefault())
	reg.Counter("census.eligible_blocks").Add(int64(len(out.Eligible)))

	campaign := &hobbit.Campaign{Measurer: p.Measurer(false), Dataset: out.Dataset, Workers: p.Workers, Telemetry: reg}
	res, err := campaign.Run(ctx, out.Eligible)
	if err != nil {
		t.Fatal(err)
	}
	out.Campaign = res

	interner := aggregate.NewInterner()
	builder := aggregate.NewBuilder(interner)
	kept := 0
	for _, br := range res.HomogeneousBlocks() {
		kept++
		builder.Add(br)
	}
	out.Aggregates = builder.Finish()
	reg.Counter("aggregate.homogeneous_in").Add(int64(kept))
	reg.Counter("aggregate.blocks_out").Add(int64(len(out.Aggregates)))
	if p.SkipClustering {
		out.Final = out.Aggregates
		return out
	}

	out.Clustering = (&cluster.Pipeline{Workers: p.ClusterWorkers, Telemetry: reg}).Run(out.Aggregates)
	oracleValidate(t, p, out, interner)
	return out
}

// oracleValidate is the validation stage stagedRun ends with: it
// validates every cluster of out.Clustering with the from-scratch
// reprobe, fills out.Validations, out.Validated and out.Final, and
// records the "validate.…" counters as Run does.
func oracleValidate(t testing.TB, p *Pipeline, out *Output, interner *aggregate.Interner) {
	t.Helper()
	reg := p.Telemetry
	clusters := out.Clustering.Clusters
	rp := scratchReprober{m: p.Measurer(true), ds: out.Dataset}
	vals := make([]cluster.Validation, len(clusters))
	pool := parallel.Pool{Workers: p.ClusterWorkers, Telemetry: reg, Stage: StageValidate}
	if err := pool.ForEach(context.Background(), len(clusters), func(i int) {
		vals[i] = cluster.Validate(clusters[i], rp, p.ValidatePairs, p.Seed)
	}); err != nil {
		t.Fatal(err)
	}
	out.Validations = make(map[int]cluster.Validation, len(clusters))
	out.Validated = make(map[int]bool)
	for i, c := range clusters {
		v := vals[i]
		out.Validations[c.ID] = v
		reg.Counter("validate.pairs_checked").Add(int64(v.PairsChecked))
		reg.Counter("validate.identical_pairs").Add(int64(v.IdenticalPairs))
		reg.Counter("validate.blocks_reprobed").Add(int64(v.Reprobed))
		if v.Passes() {
			out.Validated[c.ID] = true
			reg.Counter("validate.clusters_validated").Inc()
		}
	}
	out.Final = cluster.ApplyValidatedInterned(out.Clustering, out.Validated, interner)
	reg.Counter("validate.final_blocks").Add(int64(len(out.Final)))
}

// scratchReprober is the from-scratch Section 6.5 reprobe: each block is
// measured exhaustively from its first destination, resending every
// packet the campaign sent it. It is the oracle the resuming
// exhaustiveReprober is checked against.
type scratchReprober struct {
	m  *hobbit.Measurer
	ds *zmap.Dataset
}

func (r scratchReprober) Reprobe(b iputil.Block24) []iputil.Addr {
	return r.m.MeasureBlock(b, r.ds.ActivesBy26(b)).LastHops
}
