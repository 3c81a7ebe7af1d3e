package core_test

import (
	"context"
	"fmt"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// Running the paper end to end: build (or connect to) a probing surface,
// hand the pipeline a /24 universe, and read the homogeneous block map.
func Example() {
	cfg := netsim.DefaultConfig(600)
	cfg.BigBlockScale = 0.01
	world := netsim.MustNew(cfg)

	pipeline := &core.Pipeline{
		Net:     probe.NewSimNetwork(world),
		Scanner: world,
		Blocks:  world.Blocks(),
		Seed:    42,
	}
	out, err := pipeline.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	sum := out.Campaign.Summary()
	fmt.Println("measured:", sum.Total == len(out.Eligible))
	fmt.Println("homogeneous blocks found:", sum.Homogeneous() > 0)
	fmt.Println("aggregation reduced the map:", len(out.Final) < sum.Homogeneous())

	// Every final block is internally consistent: members share one
	// last-hop signature.
	consistent := true
	for _, b := range out.Final {
		if b.Size() == 0 || len(b.LastHops) == 0 {
			consistent = false
		}
	}
	fmt.Println("blocks well-formed:", consistent)
	// Output:
	// measured: true
	// homogeneous blocks found: true
	// aggregation reduced the map: true
	// blocks well-formed: true
}

// A full run over a 2,000-block laboratory Internet with planted ground
// truth: count what each stage produced, check the final blocks against
// the planted aggregates, and read the probe load off the telemetry
// registry. Every number is a pure function of the world and seeds; none
// is a timing.
func ExamplePipeline_Run() {
	cfg := netsim.DefaultConfig(2000)
	cfg.BigBlockScale = 0.02
	world := netsim.MustNew(cfg)
	fmt.Printf("world: %d /24s, %d router interfaces\n", len(world.Blocks()), world.NumRouters())

	// The end-to-end pipeline: census -> Hobbit -> aggregation ->
	// clustering -> validation. The registry counts every stage's probes.
	reg := telemetry.NewRegistry()
	pipeline := &core.Pipeline{
		Net:       probe.Instrument(probe.NewSimNetwork(world), reg, core.StageMeasure),
		Scanner:   world,
		Blocks:    world.Blocks(),
		Seed:      7,
		Telemetry: reg,
	}
	out, err := pipeline.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	sum := out.Campaign.Summary()
	fmt.Printf("measured %d /24s: %d homogeneous, %d heterogeneous-looking\n",
		sum.Total, sum.Homogeneous(), sum.Counts[hobbit.ClassHierarchical])
	fmt.Printf("aggregated into %d blocks; clustering left %d final blocks\n",
		len(out.Aggregates), len(out.Final))

	// Final blocks larger than a /24 are the units a measurement system
	// could probe instead of /24s. Ground truth, possible only in the
	// laboratory, says how many final blocks are pure (all members truly
	// co-located).
	multi, pure := 0, 0
	for _, b := range out.Final {
		if b.Size() >= 2 {
			if multi++; multi <= 3 {
				info, _ := world.Geo().Lookup(b.Blocks24[0])
				fmt.Printf("  %d /24s from %v (%s, %d last-hop routers)\n",
					b.Size(), b.Blocks24[0], info.Org, len(b.LastHops))
			}
		}
		ids := map[int32]bool{}
		for _, blk := range b.Blocks24 {
			if id, ok := world.TrueAggregate(blk); ok {
				ids[id] = true
			}
		}
		if len(ids) == 1 {
			pure++
		}
	}
	fmt.Printf("%d final blocks span more than one /24; %d of %d are pure\n", multi, pure, len(out.Final))

	c := reg.Snapshot().Counters
	fmt.Printf("measure: %d probes (%d retries); validate: %d probes\n",
		c["probe.measure.probes"], c["probe.measure.probe_retries"], c["probe.validate.probes"])
	// Output:
	// world: 2000 /24s, 8261 router interfaces
	// measured 762 /24s: 466 homogeneous, 52 heterogeneous-looking
	// aggregated into 241 blocks; clustering left 186 final blocks
	//   23 /24s from 12.192.62.0/24 (EGI Hosting, 3 last-hop routers)
	//   14 /24s from 12.224.28.0/24 (Verizon Wireless, 4 last-hop routers)
	//   19 /24s from 16.64.56.0/24 (NTT America, 4 last-hop routers)
	// 49 final blocks span more than one /24; 186 of 186 are pure
	// measure: 43766 probes (1837 retries); validate: 43801 probes
}
