package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// snapshot serializes everything an operator would diff between runs:
// the accuracy report plus the pipeline artifacts a fault could perturb.
func snapshot(t *testing.T, sc Scenario, opt Options) []byte {
	t.Helper()
	rep, out, err := Run(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(struct {
		Report      interface{}
		Eligible    interface{}
		Aggregates  interface{}
		Validations interface{}
		Validated   interface{}
		Final       interface{}
	}{rep, out.Eligible, out.Aggregates, out.Validations, out.Validated, out.Final})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestScenarioFloors is the accuracy-regression gate: every built-in
// fault plan must clear its precision/recall/purity floors against the
// world's ground truth. A failure here means a change made inference
// worse under adversity — treat it like a failing perf gate, not flake
// (the whole path is deterministic).
func TestScenarioFloors(t *testing.T) {
	for _, sc := range BuiltinScenarios() {
		sc := sc
		t.Run(sc.Plan, func(t *testing.T) {
			t.Parallel()
			rep, _, err := Run(sc, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Check(sc.Floors); err != nil {
				t.Errorf("%v\nreport: %+v", err, rep)
			}
			if rep.Eligible == 0 || rep.Verdicts() == 0 {
				t.Fatalf("vacuous run: %+v", rep)
			}
		})
	}
}

// TestScenarioDeterministic extends the core pipeline's byte-identical
// pinning to faulted runs: for every plan, a serial (ClusterWorkers=1)
// run, two parallel runs, and a sharded-census run must all serialize
// identically — fault injection must not introduce any order or
// concurrency dependence.
func TestScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario three times")
	}
	for _, sc := range BuiltinScenarios() {
		sc := sc
		t.Run(sc.Plan, func(t *testing.T) {
			t.Parallel()
			serialOpt := DefaultOptions()
			serialOpt.Workers, serialOpt.CensusWorkers, serialOpt.ClusterWorkers = 1, 1, 1
			parOpt := DefaultOptions()
			parOpt.Workers, parOpt.CensusWorkers, parOpt.ClusterWorkers = 4, 8, 8
			serial := snapshot(t, sc, serialOpt)
			par1 := snapshot(t, sc, parOpt)
			par2 := snapshot(t, sc, parOpt)
			if !bytes.Equal(serial, par1) {
				t.Errorf("serial and parallel faulted runs differ:\n%.400s\n%.400s", serial, par1)
			}
			if !bytes.Equal(par1, par2) {
				t.Errorf("same-seed faulted runs differ:\n%.400s\n%.400s", par1, par2)
			}
		})
	}
}

// TestScenarioAdversityVisible pins that the fault plans actually bite:
// the rate-storm scenario must degrade strictly more blocks than the
// baseline, and the blackhole scenario must silence blocks the baseline
// could classify. Guards against the plans silently becoming no-ops.
func TestScenarioAdversityVisible(t *testing.T) {
	opt := DefaultOptions()
	base, _, err := Run(Scenario{Plan: "baseline"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	storm, _, err := Run(Scenario{Plan: "rate-storm"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if storm.DegradedBlocks <= base.DegradedBlocks {
		t.Errorf("rate-storm degraded %d blocks, baseline %d — storm is a no-op",
			storm.DegradedBlocks, base.DegradedBlocks)
	}
	hole, _, err := Run(Scenario{Plan: "blackhole"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hole.NoVerdict <= base.NoVerdict {
		t.Errorf("blackhole silenced %d blocks, baseline %d — blackhole is a no-op",
			hole.NoVerdict, base.NoVerdict)
	}
}

// cleanRun runs the pipeline over the harness's clean default world with
// probe accounting attached, and returns the encoded output and the
// deterministic counters.
func cleanRun(t *testing.T, adaptive bool) ([]byte, map[string]int64) {
	t.Helper()
	opt := DefaultOptions()
	cfg := netsim.DefaultConfig(opt.Blocks)
	cfg.BigBlockScale = opt.BigBlockScale
	w := netsim.MustNew(cfg)
	reg := telemetry.NewRegistry()
	p := &core.Pipeline{
		Net:       probe.Instrument(probe.NewSimNetwork(w), reg, core.StageMeasure),
		Scanner:   w,
		Blocks:    w.Blocks(),
		Seed:      opt.Seed,
		Options:   core.Options{MDA: probe.MDAOptions{Adaptive: adaptive}},
		Telemetry: reg,
	}
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return EncodeOutput(out), reg.Snapshot().Counters
}

// TestAdaptiveCleanWorldIdentical pins that silence is not loss: on a
// clean world almost every window that dies, dies at an anonymous hop,
// so no run turns degraded in either stage. It also pins, over a whole
// pipeline, that the v1 wire's Adaptive flag is ignored: a run with it
// set measures exactly what a plain run does, packet for packet.
func TestAdaptiveCleanWorldIdentical(t *testing.T) {
	plain, plainCounters := cleanRun(t, false)
	adaptive, adaptiveCounters := cleanRun(t, true)
	if !bytes.Equal(plain, adaptive) {
		t.Errorf("the Adaptive flag changed a clean world's output:\n%.400s\n%.400s", plain, adaptive)
	}
	if !reflect.DeepEqual(plainCounters, adaptiveCounters) {
		t.Errorf("the Adaptive flag changed a clean world's counters:\nplain    %v\nadaptive %v", plainCounters, adaptiveCounters)
	}
	for _, stage := range []string{core.StageMeasure, core.StageValidate} {
		name := "probe." + stage + ".degraded_windows"
		if got := plainCounters[name]; got != 0 {
			t.Errorf("%s = %d on a clean world, want 0", name, got)
		}
	}
}

// TestSilenceCountersHarnessWorld pins the retry and silence counters of
// a plain run over the harness's clean default world. Most
// retransmissions there recover a reply lost to rate limiting at a hop
// that answers; the rest are the two retries of the one full window
// each anonymous hop gets before its flows drop to a single attempt.
func TestSilenceCountersHarnessWorld(t *testing.T) {
	_, c := cleanRun(t, false)
	for name, want := range map[string]int64{
		"probe.measure.probes":             18304,
		"probe.measure.probe_retries":      370,
		"probe.measure.recovered_retries":  339,
		"probe.measure.silent_windows":     82,
		"probe.validate.probes":            30280,
		"probe.validate.probe_retries":     592,
		"probe.validate.recovered_retries": 548,
		"probe.validate.silent_windows":    131,
	} {
		if got := c[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestUnknownPlan pins the error path.
func TestUnknownPlan(t *testing.T) {
	if _, _, err := Run(Scenario{Plan: "nope"}, DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown plan")
	}
}

// TestCheck exercises the floor comparison itself.
func TestCheck(t *testing.T) {
	r := &Report{Plan: "x", TP: 90, FP: 10, FN: 10, TN: 10, Precision: 0.9, Recall: 0.9, Purity: 1}
	if err := r.Check(Floors{Precision: 0.9, Recall: 0.9, Purity: 1, MinVerdicts: 120}); err != nil {
		t.Errorf("floors met exactly should pass: %v", err)
	}
	if err := r.Check(Floors{Precision: 0.95}); err == nil {
		t.Error("precision floor miss not reported")
	}
	if err := r.Check(Floors{Recall: 0.95}); err == nil {
		t.Error("recall floor miss not reported")
	}
	if err := (&Report{Purity: 0.8}).Check(Floors{Purity: 0.9}); err == nil {
		t.Error("purity floor miss not reported")
	}
	if err := r.Check(Floors{MinVerdicts: 121}); err == nil {
		t.Error("verdict floor miss not reported")
	}
}

// TestScoreMatrix drives Score over a handcrafted Output against a real
// world, covering every confusion-matrix cell, the no-verdict and
// unknown-block skips, and the purity arithmetic — the cells the e2e
// scenarios rarely reach (this world has almost no eligible
// heterogeneous blocks, so FP/TN stay zero there).
func TestScoreMatrix(t *testing.T) {
	cfg := netsim.DefaultConfig(120)
	// Keep the planted big aggregates tiny so the universe budget is not
	// spent before heterogeneous planting, then plant plenty of them.
	cfg.BigBlockScale = 0.005
	cfg.PHeterogeneous = 0.2
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var homs, hets []iputil.Block24
	popOf := map[iputil.Block24]int32{}
	for _, b := range w.Blocks() {
		truth, known := w.TrueHomogeneous(b)
		if !known {
			continue
		}
		if truth {
			pop, _ := w.TrueAggregate(b)
			popOf[b] = pop
			homs = append(homs, b)
		} else {
			hets = append(hets, b)
		}
	}
	if len(homs) < 4 || len(hets) < 2 {
		t.Fatalf("world composition unusable: %d homog, %d hetero", len(homs), len(hets))
	}
	// Two homogeneous blocks sharing a pop (a truly pure pair) and one
	// from a different pop (an impure partner).
	var pureA, pureB, other iputil.Block24
	found := false
	for i := 0; i < len(homs) && !found; i++ {
		for j := i + 1; j < len(homs); j++ {
			if popOf[homs[i]] == popOf[homs[j]] {
				pureA, pureB, found = homs[i], homs[j], true
				break
			}
		}
	}
	if !found {
		t.Fatal("no two homogeneous blocks share a pop")
	}
	for _, b := range homs {
		if popOf[b] != popOf[pureA] {
			other = b
			break
		}
	}
	outside := iputil.Addr(0xdfffff00).Block24()
	if _, known := w.TrueHomogeneous(outside); known {
		t.Fatal("probe block unexpectedly inside the universe")
	}

	res := func(b iputil.Block24, c hobbit.Class, degraded int) *hobbit.BlockResult {
		return &hobbit.BlockResult{Block: b, Class: c, Degraded: degraded}
	}
	campaign := &hobbit.Result{Blocks: map[iputil.Block24]*hobbit.BlockResult{
		pureA:   res(pureA, hobbit.ClassSameLastHop, 1),    // TP (degraded)
		hets[0]: res(hets[0], hobbit.ClassSameLastHop, 0),  // FP
		pureB:   res(pureB, hobbit.ClassHierarchical, 0),   // FN
		hets[1]: res(hets[1], hobbit.ClassHierarchical, 0), // TN
		other:   res(other, hobbit.ClassTooFewActive, 0),   // no verdict
		outside: res(outside, hobbit.ClassSameLastHop, 0),  // unknown: skipped
	}}
	for b := range campaign.Blocks {
		campaign.Order = append(campaign.Order, b)
	}
	out := &core.Output{
		Eligible: campaign.Order,
		Campaign: campaign,
		Final: []*aggregate.Block{
			{Blocks24: []iputil.Block24{pureA}},          // singleton: not scored
			{Blocks24: []iputil.Block24{pureA, pureB}},   // pure
			{Blocks24: []iputil.Block24{pureA, other}},   // impure: pops differ
			{Blocks24: []iputil.Block24{hets[0], pureA}}, // impure: hetero member
		},
	}
	r := Score("matrix", w, out)
	if r.TP != 1 || r.FP != 1 || r.FN != 1 || r.TN != 1 || r.NoVerdict != 1 {
		t.Errorf("matrix = TP%d FP%d FN%d TN%d NoVerdict%d, want all ones", r.TP, r.FP, r.FN, r.TN, r.NoVerdict)
	}
	if r.Precision != 0.5 || r.Recall != 0.5 {
		t.Errorf("precision %v recall %v, want 0.5 each", r.Precision, r.Recall)
	}
	if r.DegradedBlocks != 1 {
		t.Errorf("degraded %d, want 1", r.DegradedBlocks)
	}
	if r.FinalBlocks != 4 || r.MultiBlocks != 3 || r.PureBlocks != 1 {
		t.Errorf("final %d multi %d pure %d, want 4/3/1", r.FinalBlocks, r.MultiBlocks, r.PureBlocks)
	}
	if want := 1.0 / 3; r.Purity < want-1e-12 || r.Purity > want+1e-12 {
		t.Errorf("purity %v, want 1/3", r.Purity)
	}

	// An empty output renders no verdicts and no aggregates: every ratio
	// sits on a zero denominator and reports a vacuous 1.
	empty := Score("empty", w, &core.Output{Campaign: &hobbit.Result{}})
	if empty.Precision != 1 || empty.Recall != 1 || empty.Purity != 1 {
		t.Errorf("vacuous ratios = %v/%v/%v, want 1s", empty.Precision, empty.Recall, empty.Purity)
	}
}

// TestRunBadWorld pins Run's world-construction error path.
func TestRunBadWorld(t *testing.T) {
	opt := DefaultOptions()
	opt.Blocks = -1
	if _, _, err := Run(Scenario{Plan: "baseline"}, opt); err == nil {
		t.Fatal("negative universe accepted")
	}
}

// TestFirstTTLNeverChangesOutput backs core.Options.Canonical folding
// mda.first_ttl out of hobbitd's cache key: probe.FindLastHops replaces
// it with the echo-TTL estimate before every MDA run, so runs differing
// only in first_ttl produce byte-identical artifacts. The rate-storm
// world makes the retrace paths run too.
func TestFirstTTLNeverChangesOutput(t *testing.T) {
	cfg := netsim.DefaultConfig(300)
	cfg.BigBlockScale = 0.02
	w := netsim.MustNew(cfg)
	sched, err := faultplan.CompileBuiltin("rate-storm", w)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	var ref []byte
	for _, first := range []int{0, 1, 9, 32} {
		p := &core.Pipeline{
			Net:     probe.NewSimNetwork(w),
			Scanner: w,
			Blocks:  w.Blocks(),
			Seed:    7,
			Options: core.Options{MDA: probe.MDAOptions{FirstTTL: first}},
		}
		out, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := EncodeOutput(out)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("first_ttl %d changed the pipeline output", first)
		}
	}
}
