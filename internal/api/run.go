package api

import (
	"context"
	"fmt"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// World builds the world the spec names: the synthetic universe of
// Blocks /24s at Scale from Seed, with the named built-in fault plan
// installed and the epoch set. Every front end builds its worlds here,
// so one spec names one world everywhere.
func (s WorldSpecV1) World() (*netsim.World, error) {
	cfg := netsim.DefaultConfig(s.Blocks)
	cfg.BigBlockScale = s.Scale
	cfg.Seed = s.Seed
	w, err := netsim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	if s.FaultPlan != "" {
		sched, err := faultplan.CompileBuiltin(s.FaultPlan, w)
		if err != nil {
			return nil, err
		}
		w.SetFaults(sched)
	}
	w.SetEpoch(s.Epoch)
	return w, nil
}

// Campaign is a finished campaign run: its summary, the pipeline output
// the summary describes, and a monitoring run's epoch reports, bootstrap
// first (nil for a plain run).
type Campaign struct {
	Summary RunSummaryV1
	Output  *core.Output
	Reports []*monitor.EpochReport
}

// Run runs the campaign the request names over w, the world r.World
// builds. p carries only the caller's local resources (Telemetry,
// Progress, ResultSink, StreamChunk); Run measures w through an
// instrumented probing surface with the request's seed and options, and
// summarizes into p.Telemetry. A request with MonitorEpochs > 0 steps a
// monitor MonitorEpochs+1 times, advancing w's fault epoch, so w must
// then be private to the run.
func (r SubmitRequestV1) Run(ctx context.Context, w *netsim.World, p core.Pipeline) (*Campaign, error) {
	net := probe.Instrument(probe.NewSimNetwork(w), p.Telemetry, core.StageMeasure)
	p.Net, p.Scanner, p.Blocks = net, w, w.Blocks()
	p.Seed, p.Options = r.World.Seed, r.Options
	c := &Campaign{}
	if r.MonitorEpochs > 0 {
		mon := &monitor.Monitor{Pipeline: &p, Source: &monitor.WorldSource{W: w}}
		defer mon.Close()
		reps, err := mon.Run(ctx, r.MonitorEpochs+1)
		if err != nil {
			return nil, err
		}
		c.Reports, c.Output = reps, reps[len(reps)-1].Output
	} else {
		out, err := p.Run(ctx)
		if err != nil {
			return nil, err
		}
		c.Output = out
	}
	c.Summary = BuildRunSummaryV1(len(w.Blocks()), r.World.FaultPlan, c.Output, net, p.Telemetry)
	c.Summary.Monitor = BuildMonitorSummaryV1(c.Reports)
	return c, nil
}
