package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/monitor"
)

// encOutput is the canonical serialization of an Output's artifacts:
// every map is flattened into a deterministically ordered slice, so two
// byte-equal encodings mean artifact-identical runs. Telemetry is
// excluded by construction — it accounts execution (which differs
// between incremental and from-scratch paths), not results.
type encOutput struct {
	TotalActive int
	Eligible    []iputil.Block24
	Results     []*hobbit.BlockResult // in campaign order
	Aggregates  []*aggregate.Block
	Clusters    []encCluster
	Unclustered []*aggregate.Block
	Sweep       [][2]float64
	Inflation   float64
	Components  int
	Validations []encValidation
	Validated   []int
	Final       []*aggregate.Block
}

type encCluster struct {
	ID      int
	Members []*aggregate.Block
}

type encValidation struct {
	ID int
	V  cluster.Validation
}

// EncodeOutput renders a pipeline Output into one canonical byte string
// for differential comparison. Two Outputs are artifact-identical iff
// their encodings are byte-equal.
func EncodeOutput(out *core.Output) []byte {
	e := &encOutput{
		Eligible:   out.Eligible,
		Aggregates: out.Aggregates,
		Final:      out.Final,
	}
	if out.Dataset != nil {
		e.TotalActive = out.Dataset.TotalActive()
	}
	if out.Campaign != nil {
		for _, b := range out.Campaign.Order {
			e.Results = append(e.Results, out.Campaign.Blocks[b])
		}
	}
	if out.Clustering != nil {
		for _, c := range out.Clustering.Clusters {
			e.Clusters = append(e.Clusters, encCluster{ID: c.ID, Members: c.Members})
		}
		e.Unclustered = out.Clustering.Unclustered
		e.Inflation = out.Clustering.ChosenInflation
		e.Components = out.Clustering.Components
		for k, v := range out.Clustering.SweepScores {
			e.Sweep = append(e.Sweep, [2]float64{k, v})
		}
		sort.Slice(e.Sweep, func(i, j int) bool { return e.Sweep[i][0] < e.Sweep[j][0] })
	}
	for id, v := range out.Validations {
		e.Validations = append(e.Validations, encValidation{ID: id, V: v})
	}
	sort.Slice(e.Validations, func(i, j int) bool { return e.Validations[i].ID < e.Validations[j].ID })
	for id, ok := range out.Validated {
		if ok {
			e.Validated = append(e.Validated, id)
		}
	}
	sort.Ints(e.Validated)
	b, err := json.Marshal(e)
	if err != nil {
		// Every field is a plain value type; a marshal failure is a
		// programming error, not a data condition.
		panic(err)
	}
	return b
}

// IncrementalScenario configures one differential monitoring check.
type IncrementalScenario struct {
	// Plan is the built-in fault plan driving the churn.
	Plan string
	// Epochs is how many epochs the monitor steps through (including
	// the epoch-0 bootstrap).
	Epochs int
	// StreamChunk is applied to the from-scratch reference pipeline, so
	// the monitor is checked against the streamed execution shape too.
	StreamChunk int
}

// CheckIncremental is the differential harness for the monitoring mode:
// it steps a Monitor epoch by epoch over a faulted world and, at every
// epoch, demands the incremental Output be byte-identical (under
// EncodeOutput) to a from-scratch pipeline run against the same world
// pinned at the same epoch. It also enforces the point of the exercise:
// under a partial-churn plan, later epochs must reprobe strictly fewer
// blocks than the universe.
func CheckIncremental(sc IncrementalScenario, opt Options) error {
	w, p, err := scenario(sc.Plan, opt)
	if err != nil {
		return err
	}
	defer w.SetFaultEpoch(-1)
	// The reference runs the same pipeline in the streamed shape; the
	// copy is taken before the monitor first uses p.
	ref := *p
	ref.StreamChunk = sc.StreamChunk
	mon := &monitor.Monitor{Pipeline: p, Source: &monitor.WorldSource{W: w}}
	defer mon.Close()

	ctx := context.Background()
	fullReprobes := 0
	for e := 0; e < sc.Epochs; e++ {
		rep, err := mon.Step(ctx)
		if err != nil {
			return fmt.Errorf("harness: plan %q epoch %d: monitor: %w", sc.Plan, e, err)
		}
		// The monitor left the world pinned at e; the reference runs
		// from scratch against exactly that network state.
		want, err := ref.Run(ctx)
		if err != nil {
			return fmt.Errorf("harness: plan %q epoch %d: reference: %w", sc.Plan, e, err)
		}
		got, ref := EncodeOutput(rep.Output), EncodeOutput(want)
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("harness: plan %q epoch %d: incremental output diverged from from-scratch (%d vs %d bytes)",
				sc.Plan, e, len(got), len(ref))
		}
		if e == 0 {
			if !rep.All || rep.Reprobed != len(rep.Output.Eligible) {
				return fmt.Errorf("harness: plan %q: bootstrap epoch measured %d of %d eligible", sc.Plan, rep.Reprobed, len(rep.Output.Eligible))
			}
			continue
		}
		if rep.All {
			fullReprobes++
		}
	}
	if sc.Epochs > 1 && fullReprobes == sc.Epochs-1 {
		return fmt.Errorf("harness: plan %q: every post-bootstrap epoch degraded to a full reprobe", sc.Plan)
	}
	return nil
}
