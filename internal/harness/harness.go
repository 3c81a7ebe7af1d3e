// Package harness is the accuracy-regression harness: it runs the full
// pipeline over a synthetic world under a named fault plan and scores
// the homogeneity verdicts and aggregation purity against the world's
// ground truth (netsim/truth.go). Its tests assert per-scenario
// precision/recall floors, making inference quality a hard CI gate the
// same way cmd/benchdiff gates performance.
package harness

import (
	"context"
	"fmt"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// Options shapes the synthetic world and pipeline a scenario runs over.
// The zero value is not useful; start from DefaultOptions.
type Options struct {
	// Blocks is the /24 universe size.
	Blocks int
	// BigBlockScale scales the planted big aggregates (the core tests'
	// 0.02 keeps small worlds interesting).
	BigBlockScale float64
	// Seed drives the pipeline's deterministic shuffles.
	Seed uint64
	// Epoch is the measurement epoch faults and churn key off.
	Epoch int
	// Workers, CensusWorkers, and ClusterWorkers bound stage
	// concurrency exactly as on core.Pipeline (0 = GOMAXPROCS).
	Workers, CensusWorkers, ClusterWorkers int
}

// DefaultOptions returns the harness's standard small-world setup: big
// enough for every class and fault kind to occur, small enough for five
// scenarios to run in a CI test.
func DefaultOptions() Options {
	return Options{Blocks: 300, BigBlockScale: 0.02, Seed: 7}
}

// Floors are the per-scenario accuracy minima Check enforces.
type Floors struct {
	// Precision and Recall bound the homogeneity confusion matrix
	// (verdicts rendered vs ground truth).
	Precision float64
	Recall    float64
	// Purity bounds the fraction of multi-member final aggregates whose
	// member /24s truly share one pop.
	Purity float64
	// MinVerdicts is the least number of (TP+FP+FN+TN) verdicts the run
	// must render — the guard that keeps a fault from trivially
	// satisfying the ratios by silencing every block.
	MinVerdicts int
}

// Scenario names a built-in fault plan and the floors it must clear.
type Scenario struct {
	Plan   string
	Floors Floors
}

// Report is the scored outcome of one scenario run.
type Report struct {
	Plan     string `json:"plan"`
	Eligible int    `json:"eligible"`

	// Homogeneity confusion matrix over analyzable verdicts.
	TP int `json:"tp"` // called homogeneous, truly homogeneous
	FP int `json:"fp"` // called homogeneous, truly heterogeneous
	FN int `json:"fn"` // called heterogeneous, truly homogeneous
	TN int `json:"tn"` // called heterogeneous, truly heterogeneous
	// NoVerdict counts eligible blocks the run could not classify
	// (too few active, unresponsive last hop).
	NoVerdict int `json:"no_verdict"`

	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`

	// Aggregation purity over multi-member final blocks.
	FinalBlocks int     `json:"final_blocks"`
	MultiBlocks int     `json:"multi_blocks"`
	PureBlocks  int     `json:"pure_blocks"`
	Purity      float64 `json:"purity"`

	// DegradedBlocks counts /24s with a measurement that lost
	// consecutive windows at hops that answer (hobbit.BlockResult.Degraded).
	DegradedBlocks int `json:"degraded_blocks"`
}

// Verdicts returns the number of classified blocks behind the matrix.
func (r *Report) Verdicts() int { return r.TP + r.FP + r.FN + r.TN }

// Check compares the report against the floors; the returned error
// lists every floor missed (nil when all clear).
func (r *Report) Check(f Floors) error {
	var errs []string
	if r.Precision < f.Precision {
		errs = append(errs, fmt.Sprintf("precision %.4f < floor %.4f", r.Precision, f.Precision))
	}
	if r.Recall < f.Recall {
		errs = append(errs, fmt.Sprintf("recall %.4f < floor %.4f", r.Recall, f.Recall))
	}
	if r.Purity < f.Purity {
		errs = append(errs, fmt.Sprintf("purity %.4f < floor %.4f", r.Purity, f.Purity))
	}
	if v := r.Verdicts(); v < f.MinVerdicts {
		errs = append(errs, fmt.Sprintf("verdicts %d < floor %d", v, f.MinVerdicts))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("harness: plan %q: %v", r.Plan, errs)
}

// Run executes one scenario: build the world, derive and install the
// named built-in fault plan, set the epoch, run the full pipeline, and
// score the output against ground truth. The whole path is
// deterministic in (Options, Scenario.Plan).
func Run(sc Scenario, opt Options) (*Report, *core.Output, error) {
	w, p, err := scenario(sc.Plan, opt)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return Score(sc.Plan, w, out), out, nil
}

// scenario builds the world a scenario runs over, with the named
// built-in fault plan installed and the epoch set, and the pipeline that
// measures it.
func scenario(plan string, opt Options) (*netsim.World, *core.Pipeline, error) {
	w, err := api.WorldSpecV1{
		Blocks:    opt.Blocks,
		Scale:     opt.BigBlockScale,
		Seed:      netsim.DefaultSeed,
		FaultPlan: plan,
		Epoch:     opt.Epoch,
	}.World()
	if err != nil {
		return nil, nil, err
	}
	return w, &core.Pipeline{
		Net:     probe.NewSimNetwork(w),
		Scanner: w,
		Blocks:  w.Blocks(),
		Seed:    opt.Seed,
		Options: core.Options{
			Workers:        opt.Workers,
			CensusWorkers:  opt.CensusWorkers,
			ClusterWorkers: opt.ClusterWorkers,
		},
	}, nil
}

// Score builds the accuracy report for a pipeline output against the
// world's ground truth.
func Score(plan string, w *netsim.World, out *core.Output) *Report {
	r := &Report{Plan: plan, Eligible: len(out.Eligible)}
	for _, b := range out.Campaign.Order {
		br, ok := out.Campaign.Blocks[b]
		if !ok {
			continue
		}
		truth, known := w.TrueHomogeneous(b)
		if !known {
			continue
		}
		if br.Degraded > 0 {
			r.DegradedBlocks++
		}
		if !br.Class.Analyzable() {
			r.NoVerdict++
			continue
		}
		switch {
		case br.Class.Homogeneous() && truth:
			r.TP++
		case br.Class.Homogeneous():
			r.FP++
		case truth:
			r.FN++
		default:
			r.TN++
		}
	}
	r.Precision = ratio(r.TP, r.TP+r.FP)
	r.Recall = ratio(r.TP, r.TP+r.FN)

	r.FinalBlocks = len(out.Final)
	for _, agg := range out.Final {
		if agg.Size() < 2 {
			continue
		}
		r.MultiBlocks++
		pure := true
		first, ok := w.TrueAggregate(agg.Blocks24[0])
		if !ok {
			pure = false
		}
		for _, m := range agg.Blocks24[1:] {
			pop, ok := w.TrueAggregate(m)
			if !ok || pop != first {
				pure = false
				break
			}
		}
		if pure {
			r.PureBlocks++
		}
	}
	r.Purity = ratio(r.PureBlocks, r.MultiBlocks)
	return r
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// BuiltinScenarios returns the CI scenario set: every built-in fault
// plan with its calibrated floors. Floors sit below the observed values
// with margin (they are regression alarms, not sharpness records), but
// high enough that a real inference regression — aggregation poisoning,
// retry logic broken, degradation marking everything — trips them.
func BuiltinScenarios() []Scenario {
	return []Scenario{
		{Plan: "baseline", Floors: Floors{Precision: 0.97, Recall: 0.87, Purity: 0.95, MinVerdicts: 250}},
		{Plan: "blackhole", Floors: Floors{Precision: 0.97, Recall: 0.86, Purity: 0.95, MinVerdicts: 235}},
		{Plan: "rate-storm", Floors: Floors{Precision: 0.95, Recall: 0.85, Purity: 0.90, MinVerdicts: 250}},
		{Plan: "flap", Floors: Floors{Precision: 0.95, Recall: 0.86, Purity: 0.90, MinVerdicts: 250}},
		{Plan: "congestion", Floors: Floors{Precision: 0.95, Recall: 0.85, Purity: 0.90, MinVerdicts: 245}},
	}
}
