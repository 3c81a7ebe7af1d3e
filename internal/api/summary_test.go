package api

import (
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/cluster"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// silentNet is a probing surface that never answers; the summary only
// reads what an Instrumented counted on the way to it.
type silentNet struct{}

func (silentNet) Ping(iputil.Addr, int) (probe.PingResult, bool) { return probe.PingResult{}, false }

func (silentNet) Probe(iputil.Addr, int, uint16, uint32) probe.Result { return probe.Result{} }

func TestBuildRunSummaryV1(t *testing.T) {
	net := probe.Instrument(silentNet{}, nil, "measure")
	for seq := 0; seq < 3; seq++ {
		net.Ping(0, seq) // the second and third are retries
	}
	for ttl := 1; ttl <= 4; ttl++ {
		net.Probe(0, ttl, 0, 0)
	}
	net.Observe(probe.ProbeRetry)
	reg := telemetry.NewRegistry()
	reg.Counter("census.eligible_blocks").Add(5)
	aggs := make([]*aggregate.Block, 3)
	out := &core.Output{
		Eligible: []iputil.Block24{1, 2, 3, 4, 5},
		Campaign: &hobbit.Result{Blocks: map[iputil.Block24]*hobbit.BlockResult{
			1: {Block: 1, Class: hobbit.ClassSameLastHop},
			2: {Block: 2, Class: hobbit.ClassSameLastHop},
			3: {Block: 3, Class: hobbit.ClassNonHierarchical},
			4: {Block: 4, Class: hobbit.ClassHierarchical},
			5: {Block: 5, Class: hobbit.ClassTooFewActive},
		}},
		Aggregates: aggs,
		Final:      aggs[:2],
	}

	// Without clustering, Clusters and Validated stay 0.
	got := BuildRunSummaryV1(300, "churn", out, net, reg)
	want := RunSummaryV1{
		Universe: 300,
		Eligible: 5,
		Pings:    3,
		Probes:   4,
		Retries:  3, // two ping retries plus one probe retry
		Classes: map[string]int{
			hobbit.ClassSameLastHop.String():     2,
			hobbit.ClassNonHierarchical.String(): 1,
			hobbit.ClassHierarchical.String():    1,
			hobbit.ClassTooFewActive.String():    1,
		},
		Homogeneous: 3,
		Measurable:  4,
		Aggregates:  3,
		Final:       2,
		FaultPlan:   "churn",
		Telemetry:   reg.Snapshot(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("without clustering:\ngot  %+v\nwant %+v", got, want)
	}

	// Clusters counts every cluster, Validated only the accepted ones.
	out.Clustering = &cluster.Result{Clusters: []*cluster.Cluster{{ID: 0}, {ID: 1}, {ID: 2}}}
	out.Validated = map[int]bool{0: true, 1: false, 2: true}
	got = BuildRunSummaryV1(300, "churn", out, net, reg)
	want.Clusters, want.Validated = 3, 2
	if !reflect.DeepEqual(got, want) {
		t.Errorf("with clustering:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestBuildMonitorSummaryV1(t *testing.T) {
	if got := BuildMonitorSummaryV1(nil); got != nil {
		t.Errorf("no reports: got %+v, want nil", got)
	}
	reps := []*monitor.EpochReport{
		{
			Epoch: 0, All: true, Changed: 300, Reprobed: 120,
			Cluster:   cluster.EpochStats{Components: 9, Recomputed: 9},
			ValReused: 0, ValRecomputed: 4,
			Output: &core.Output{Final: make([]*aggregate.Block, 17)},
		},
		{
			// A cancelled epoch carries no Output.
			Epoch: 5, Changed: 40, Reprobed: 12,
			Cluster:   cluster.EpochStats{Components: 10, Reused: 7, Recomputed: 2},
			ValReused: 3, ValRecomputed: 1,
		},
	}
	want := &MonitorSummaryV1{Epochs: []MonitorEpochV1{
		{Epoch: 0, All: true, Changed: 300, Reprobed: 120, ComponentsRecomputed: 9, ValidationsRecomputed: 4, Final: 17},
		{Epoch: 5, Changed: 40, Reprobed: 12, ComponentsReused: 7, ComponentsRecomputed: 2, ValidationsReused: 3, ValidationsRecomputed: 1},
	}}
	if got := BuildMonitorSummaryV1(reps); !reflect.DeepEqual(got, want) {
		t.Errorf("got  %+v\nwant %+v", got, want)
	}
}
