package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// packetKey identifies a packet by what its answer depends on: the
// destination, TTL, flow and salt of a probe, or the destination and
// sequence number of a ping (carried in ttl).
type packetKey struct {
	dst  iputil.Addr
	ttl  int
	flow uint16
	salt uint32
	ping bool
}

// packetLog is a probe.Network that keeps the key of every packet the
// measure stage sends and counts the validate stage's packets, and
// among them those whose key the measure stage already sent.
type packetLog struct {
	probe.Network

	mu                 sync.Mutex
	stage              string
	measured           map[packetKey]struct{}
	validate, repeated int
}

func newPacketLog(net probe.Network) *packetLog {
	return &packetLog{Network: net, measured: make(map[packetKey]struct{})}
}

// SetStage follows the pipeline's stage attribution.
func (l *packetLog) SetStage(stage string) {
	l.mu.Lock()
	l.stage = stage
	l.mu.Unlock()
}

func (l *packetLog) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	l.record(packetKey{dst: dst, ttl: seq, ping: true})
	return l.Network.Ping(dst, seq)
}

func (l *packetLog) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	l.record(packetKey{dst: dst, ttl: ttl, flow: flowID, salt: salt})
	return l.Network.Probe(dst, ttl, flowID, salt)
}

func (l *packetLog) record(k packetKey) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.stage {
	case StageMeasure:
		l.measured[k] = struct{}{}
	case StageValidate:
		l.validate++
		if _, ok := l.measured[k]; ok {
			l.repeated++
		}
	}
}

// checkValidationResume runs the pipeline over a world of n /24s at the
// given big-block scale, seed and fault plan ("" for a clean world),
// validating every pair. Run's
// validation resumes each member's campaign measurement; its
// Validations, Validated and Final must equal those of the from-scratch
// reprobe, and it must send no packet whose key the measure stage sent.
func checkValidationResume(t *testing.T, n int, scale float64, seed uint64, plan string) {
	t.Helper()
	cfg := netsim.DefaultConfig(n)
	cfg.BigBlockScale = scale
	cfg.Seed = seed
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		sched, err := faultplan.CompileBuiltin(plan, w)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(sched)
	}
	log := newPacketLog(probe.NewSimNetwork(w))
	p := &Pipeline{Net: log, Scanner: w, Blocks: w.Blocks(), Seed: seed}
	got, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Validations) == 0 || log.validate == 0 {
		t.Fatalf("%d clusters validated with %d packets; the check would compare nothing", len(got.Validations), log.validate)
	}

	oracle := *p
	oracle.Net = probe.NewSimNetwork(w)
	want := &Output{Dataset: got.Dataset, Clustering: got.Clustering}
	oracleValidate(t, &oracle, want, aggregate.NewInterner())
	if !reflect.DeepEqual(got.Validations, want.Validations) {
		for id, v := range want.Validations {
			if got.Validations[id] != v {
				t.Errorf("cluster %d: validation %+v, from scratch %+v", id, got.Validations[id], v)
			}
		}
	}
	if !reflect.DeepEqual(got.Validated, want.Validated) {
		t.Errorf("%d clusters validated, %d from scratch", len(got.Validated), len(want.Validated))
	}
	if !reflect.DeepEqual(got.Final, want.Final) {
		t.Errorf("%d final blocks, %d from scratch, or their contents differ", len(got.Final), len(want.Final))
	}
	if log.repeated != 0 {
		t.Errorf("validation resent %d of the measure stage's packets (of %d it sent)", log.repeated, log.validate)
	}
	t.Logf("%d eligible /24s, %d clusters, %d validated; validation sent %d packets",
		len(got.Eligible), len(got.Validations), len(got.Validated), log.validate)
}

// TestValidationResumesCampaign checks validation against the
// from-scratch reprobe on a world shaped like the serving benchmark's:
// 2,000 /24s at big-block scale 0.25, default options, every pair
// validated. -short runs the clean world only; the full run adds every
// built-in fault plan.
func TestValidationResumesCampaign(t *testing.T) {
	plans := []string{""}
	if !testing.Short() {
		plans = append(plans, faultplan.BuiltinNames()...)
	}
	for _, plan := range plans {
		name := plan
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkValidationResume(t, 2000, 0.25, 7, plan)
		})
	}
}

// TestValidationResumeNightly is the schedule-only scale leg of
// TestValidationResumesCampaign: the clean 100,000-/24 world at seeds 7
// and 11, and the 20,000-/24 world under every built-in fault plan, all
// at big-block scale 0.05. Gated behind HOBBIT_VALIDATION_NIGHTLY=1.
func TestValidationResumeNightly(t *testing.T) {
	if os.Getenv("HOBBIT_VALIDATION_NIGHTLY") != "1" {
		t.Skip("nightly validation-resume sweep; set HOBBIT_VALIDATION_NIGHTLY=1 to run")
	}
	for _, seed := range []uint64{7, 11} {
		t.Run(fmt.Sprintf("clean-100k-seed-%d", seed), func(t *testing.T) {
			checkValidationResume(t, 100000, 0.05, seed, "")
		})
	}
	for _, plan := range faultplan.BuiltinNames() {
		t.Run(plan+"-20k", func(t *testing.T) {
			checkValidationResume(t, 20000, 0.05, 7, plan)
		})
	}
}
