package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// marshalOutput serializes every deterministic artifact of a run the way
// TestPipelineOutputDeterministic does, so Run and the staged oracle can
// be compared byte for byte.
func marshalOutput(t *testing.T, out *Output) []byte {
	t.Helper()
	j, err := json.Marshal(struct {
		Eligible    interface{}
		Campaign    interface{}
		Aggregates  interface{}
		Validations interface{}
		Validated   interface{}
		Final       interface{}
	}{out.Eligible, out.Campaign.Order, out.Aggregates,
		out.Validations, out.Validated, out.Final})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestPipelineStreamedIdentical pins the run-shape invariant: Run (census
// chunks feeding the campaign feeding aggregation and the streaming
// clusterer) must produce byte-identical artifacts — and identical
// telemetry counters and histograms — to the barrier-staged oracle, at 1,
// 2, and 8 workers and across chunk sizes that do and do not divide the
// universe, including the size derived from the input.
func TestPipelineStreamedIdentical(t *testing.T) {
	pipe := func(streamChunk, workers int) (*Pipeline, *telemetry.Registry) {
		_, p := testPipeline(t, 300)
		reg := telemetry.NewRegistry()
		p.Telemetry = reg
		p.Workers = workers
		p.CensusWorkers = workers
		p.ClusterWorkers = workers
		p.StreamChunk = streamChunk
		return p, reg
	}

	p, reg := pipe(0, 4)
	wantOut := stagedRun(t, p)
	wantJSON, wantSnap := marshalOutput(t, wantOut), reg.Snapshot()
	if len(wantOut.Eligible) == 0 || len(wantOut.Final) == 0 {
		t.Fatal("staged oracle produced no output")
	}
	for _, tc := range []struct {
		name           string
		chunk, workers int
	}{
		{"chunk=32/workers=1", 32, 1},
		{"chunk=32/workers=8", 32, 8},
		{"odd-chunk", 7, 8},
		{"one-chunk", 1 << 20, 8},
		{"derived-chunk", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, reg := pipe(tc.chunk, tc.workers)
			gotOut, err := p.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON := marshalOutput(t, gotOut); !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("Run output differs from the staged oracle:\n%.300s\n%.300s", gotJSON, wantJSON)
			}
			if !gotOut.Dataset.Equal(wantOut.Dataset) {
				t.Error("Run dataset differs from the staged oracle")
			}
			snap := reg.Snapshot()
			if !reflect.DeepEqual(snap.Counters, wantSnap.Counters) {
				t.Errorf("counters differ:\nRun:    %v\noracle: %v", snap.Counters, wantSnap.Counters)
			}
			if !reflect.DeepEqual(snap.Histograms, wantSnap.Histograms) {
				t.Error("histograms differ between Run and the staged oracle")
			}
		})
	}
}

// TestPipelineClusteringMatrix is the acceptance matrix for the
// streaming clustering stage: {ClusterWorkers 1, 8} × {StreamChunk 1,
// 64, 4096}, on an unfaulted world and on a blackhole-faulted world,
// each compared byte for byte — artifacts, counters, histograms —
// against that world's barrier-staged oracle.
func TestPipelineClusteringMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("14 full pipeline runs are slow")
	}
	for _, faulted := range []bool{false, true} {
		name := "unfaulted"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			pipe := func(streamChunk, clusterWorkers int) (*Pipeline, *telemetry.Registry) {
				w, p := testPipeline(t, 300)
				if faulted {
					sched, err := faultplan.CompileBuiltin("blackhole", w)
					if err != nil {
						t.Fatal(err)
					}
					w.SetFaults(sched)
				}
				reg := telemetry.NewRegistry()
				p.Telemetry = reg
				p.ClusterWorkers = clusterWorkers
				p.StreamChunk = streamChunk
				return p, reg
			}
			p, reg := pipe(0, 4)
			wantJSON, wantSnap := marshalOutput(t, stagedRun(t, p)), reg.Snapshot()
			if wantSnap.Counters["cluster.clusters"] == 0 {
				t.Fatal("oracle run produced no clusters; the matrix would compare nothing")
			}
			for _, cw := range []int{1, 8} {
				for _, chunk := range []int{1, 64, 4096} {
					p, reg := pipe(chunk, cw)
					out, err := p.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(marshalOutput(t, out), wantJSON) {
						t.Errorf("chunk=%d workers=%d: output differs from the staged oracle", chunk, cw)
					}
					snap := reg.Snapshot()
					if !reflect.DeepEqual(snap.Counters, wantSnap.Counters) {
						t.Errorf("chunk=%d workers=%d: counters differ:\ngot:  %v\nwant: %v",
							chunk, cw, snap.Counters, wantSnap.Counters)
					}
					if !reflect.DeepEqual(snap.Histograms, wantSnap.Histograms) {
						t.Errorf("chunk=%d workers=%d: histograms differ", chunk, cw)
					}
				}
			}
		})
	}
}

// TestPipelineStreamedCancel: cancelling a streamed run returns the
// partial artifacts with ctx.Err and leaves no stage wedged.
func TestPipelineStreamedCancel(t *testing.T) {
	_, p := testPipeline(t, 200)
	p.StreamChunk = 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := p.Run(ctx)
	if err == nil {
		t.Fatal("cancelled streamed run returned nil error")
	}
	if out == nil {
		t.Fatal("cancelled streamed run returned nil output")
	}
}
