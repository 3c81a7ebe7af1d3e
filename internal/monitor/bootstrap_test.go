package monitor_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/harness"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// TestCancelledBootstrapRecovers: a Step cancelled during the bootstrap
// — before the census or mid-campaign — must leave the monitor unbooted
// and no goroutine of its streamed census or campaign running, so the
// next Step bootstraps in full and matches a fresh monitor's bootstrap
// byte for byte, on a clean world and under churn.
func TestCancelledBootstrapRecovers(t *testing.T) {
	for _, plan := range []string{"", "churn"} {
		for _, midCampaign := range []bool{false, true} {
			cfg := netsim.DefaultConfig(200)
			cfg.BigBlockScale = 0.02
			w := netsim.MustNew(cfg)
			if plan != "" {
				sched, err := faultplan.CompileBuiltin(plan, w)
				if err != nil {
					t.Fatal(err)
				}
				w.SetFaults(sched)
			}
			newMonitor := func() *monitor.Monitor {
				p := &core.Pipeline{
					Net:     probe.NewSimNetwork(w),
					Scanner: w,
					Blocks:  w.Blocks(),
					Seed:    3,
					Options: core.Options{Workers: 4},
				}
				return &monitor.Monitor{Pipeline: p, Source: &monitor.WorldSource{W: w}}
			}

			fresh := newMonitor()
			want, err := fresh.Step(context.Background())
			fresh.Close()
			if err != nil {
				t.Fatal(err)
			}

			m := newMonitor()
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			if midCampaign {
				n := 0
				m.Pipeline.Progress = telemetry.SinkFunc(func(telemetry.ProgressEvent) {
					if n++; n == 5 {
						cancel()
					}
				})
			} else {
				cancel()
			}
			if _, err := m.Step(ctx); err == nil {
				t.Fatalf("plan %q mid=%v: cancelled Step returned nil error", plan, midCampaign)
			}
			cancel()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("plan %q mid=%v: %d goroutines still running after a cancelled Step, %d before",
						plan, midCampaign, runtime.NumGoroutine(), base)
				}
			}
			m.Pipeline.Progress = nil
			got, err := m.Step(context.Background())
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !got.All || got.Reprobed != len(want.Output.Eligible) {
				t.Errorf("plan %q mid=%v: Step after cancel measured %d of %d eligible (All=%v)",
					plan, midCampaign, got.Reprobed, len(want.Output.Eligible), got.All)
			}
			if !bytes.Equal(harness.EncodeOutput(got.Output), harness.EncodeOutput(want.Output)) {
				t.Errorf("plan %q mid=%v: Step after a cancelled bootstrap differs from a fresh bootstrap", plan, midCampaign)
			}
			w.SetFaultEpoch(-1)
		}
	}
}
