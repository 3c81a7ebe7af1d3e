// Monitoring-mode scale legs: BenchmarkMonitorEpoch pins the cost of
// one incremental epoch at 100k blocks under the churn plan — the
// sublinearity gate behind DESIGN.md §4j (reprobes proportional to the
// churned blocks, never the universe) — and TestMonitorScaleNightly is
// the schedule-only 100k-block monitoring session, gating per-epoch
// wall clock against the bootstrap and dumping per-epoch telemetry
// snapshots for the nightly artifacts.
//
// Run with: go test -run xxx -bench '^BenchmarkMonitorEpoch$' -benchtime=1x -count=3 -benchmem .
package hobbit

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// monitorHeapCeiling bounds the monitoring session's peak heap: the
// per-block result cache and the validation and MCL sweep caches are
// inherent state (linear in the universe), as is the similarity graph
// each epoch builds over its aggregates, but an epoch step must not
// rematerialize the rest of a from-scratch run on top of them.
const monitorHeapCeiling = 512 << 20

var (
	monitorOnce  sync.Once
	monitorWorld *netsim.World
	monitorErr   error
)

// monitorLab builds the monitoring benchmarks' own churn-faulted world.
// It is deliberately separate from scaleLab: the monitor pins the
// world's fault epoch, and the shared scale world must stay unmutated
// for the other legs.
func monitorLab(tb testing.TB) *netsim.World {
	tb.Helper()
	monitorOnce.Do(func() {
		cfg := netsim.DefaultConfig(scaleBlocks)
		cfg.BigBlockScale = 0.05
		monitorWorld, monitorErr = netsim.New(cfg)
		if monitorErr != nil {
			return
		}
		var sched *faultplan.Schedule
		sched, monitorErr = faultplan.CompileBuiltin("churn", monitorWorld)
		if monitorErr == nil {
			monitorWorld.SetFaults(sched)
		}
	})
	if monitorErr != nil {
		tb.Fatal(monitorErr)
	}
	return monitorWorld
}

func monitorPipeline(w *netsim.World, reg *telemetry.Registry) *core.Pipeline {
	return &core.Pipeline{
		Net:       probe.NewSimNetwork(w),
		Scanner:   w,
		Blocks:    w.Blocks(),
		Seed:      7,
		Telemetry: reg,
		Options: core.Options{
			Workers:        8,
			CensusWorkers:  8,
			ClusterWorkers: 8,
			ValidatePairs:  100,
		},
	}
}

// BenchmarkMonitorEpoch times one incremental epoch of a 100k-block
// monitoring session under route churn. The bootstrap (a full
// census-and-measure pass) runs outside the timer; every timed
// iteration advances one epoch. The leg fails outright if any epoch
// degrades to a full reprobe — the metric being gated is that reprobes
// track the churned set, not the universe.
func BenchmarkMonitorEpoch(b *testing.B) {
	w := monitorLab(b)

	b.Run(fmt.Sprintf("epoch-%dk-blocks", scaleBlocks/1000), func(b *testing.B) {
		mon := &monitor.Monitor{Pipeline: monitorPipeline(w, nil), Source: &monitor.WorldSource{W: w}}
		defer mon.Close()
		defer w.SetFaultEpoch(-1)
		boot, err := mon.Step(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		eligible := len(boot.Output.Eligible)
		if eligible == 0 {
			b.Fatal("bootstrap found no eligible blocks")
		}

		b.ReportAllocs()
		runtime.GC()
		hp := trackHeapPeak()
		b.ResetTimer()
		var reprobed, changed int
		for i := 0; i < b.N; i++ {
			rep, err := mon.Step(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if rep.All || rep.Reprobed >= eligible {
				b.Fatalf("epoch %d reprobed %d of %d eligible — not incremental", rep.Epoch, rep.Reprobed, eligible)
			}
			reprobed += rep.Reprobed
			changed += rep.Changed
		}
		b.StopTimer()
		guardHeap(b, hp.Stop(), monitorHeapCeiling)
		b.ReportMetric(float64(reprobed)/float64(b.N), "reprobed-blocks")
		b.ReportMetric(float64(changed)/float64(b.N), "changed-blocks")
		b.ReportMetric(float64(eligible), "eligible-blocks")
	})
}

// TestMonitorScaleNightly is the schedule-only monitoring session: 100k
// blocks, churn plan, 8 post-bootstrap epochs. It gates the monitoring
// promise in wall-clock terms — every incremental epoch must cost less
// than 20% of the from-scratch bootstrap — and writes one telemetry
// snapshot per epoch into HOBBIT_MONITOR_NIGHTLY_DIR for the nightly
// artifact upload. Gated behind HOBBIT_MONITOR_NIGHTLY=1; per-PR CI
// covers the same path at small scale through the harness matrix.
func TestMonitorScaleNightly(t *testing.T) {
	if os.Getenv("HOBBIT_MONITOR_NIGHTLY") != "1" {
		t.Skip("nightly monitoring session; set HOBBIT_MONITOR_NIGHTLY=1 to run")
	}
	dir := os.Getenv("HOBBIT_MONITOR_NIGHTLY_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	const epochs = 8

	w := monitorLab(t)
	reg := telemetry.NewRegistry()
	mon := &monitor.Monitor{Pipeline: monitorPipeline(w, reg), Source: &monitor.WorldSource{W: w}}
	defer mon.Close()
	defer w.SetFaultEpoch(-1)

	start := time.Now()
	boot, err := mon.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bootstrap := time.Since(start)
	eligible := len(boot.Output.Eligible)
	t.Logf("bootstrap: %v, %d eligible blocks", bootstrap, eligible)
	writeEpochSnapshot(t, dir, reg, boot, bootstrap)

	budget := bootstrap / 5
	for e := 1; e <= epochs; e++ {
		start = time.Now()
		rep, err := mon.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		writeEpochSnapshot(t, dir, reg, rep, wall)
		t.Logf("epoch %d: %v wall, %d changed, %d reprobed, cluster %+v, val %d/%d reused",
			rep.Epoch, wall, rep.Changed, rep.Reprobed, rep.Cluster, rep.ValReused, rep.ValReused+rep.ValRecomputed)
		if rep.All || rep.Reprobed >= eligible {
			t.Errorf("epoch %d reprobed %d of %d eligible — not incremental", rep.Epoch, rep.Reprobed, eligible)
		}
		if wall >= budget {
			t.Errorf("epoch %d wall %v exceeds 20%% of bootstrap (%v)", rep.Epoch, wall, budget)
		}
	}
}

// writeEpochSnapshot dumps one epoch's accounting plus the cumulative
// counter state as monitor-epoch-N.json in dir.
func writeEpochSnapshot(t *testing.T, dir string, reg *telemetry.Registry, rep *monitor.EpochReport, wall time.Duration) {
	t.Helper()
	counters, err := reg.MarshalCounters()
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string]any{
		"epoch":          rep.Epoch,
		"wall_ms":        wall.Milliseconds(),
		"all":            rep.All,
		"changed":        rep.Changed,
		"reprobed":       rep.Reprobed,
		"cluster":        rep.Cluster,
		"val_reused":     rep.ValReused,
		"val_recomputed": rep.ValRecomputed,
		"final_blocks":   len(rep.Output.Final),
		"counters":       json.RawMessage(counters),
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("monitor-epoch-%d.json", rep.Epoch))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
