package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// TestFlagDefaults pins that hobbitd states each default once: parsing
// no flags gives serverConfig's own defaults, and a negative
// -progress-every keeps every event.
func TestFlagDefaults(t *testing.T) {
	_, cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := serverConfig{}.withDefaults()
	want.Now = nil // a func; the flags never set the clock
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("flag defaults %+v, want %+v", cfg, want)
	}

	_, cfg, err = parseFlags([]string{"-progress-every=-5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.withDefaults().ProgressEvery; got != 0 {
		t.Errorf("-progress-every=-5 thins to every %d, want 0 (all)", got)
	}
}

// withoutDurations re-encodes a run summary with its span durations,
// the one wall-clock part of it, zeroed.
func withoutDurations(t *testing.T, b []byte) []byte {
	t.Helper()
	var s api.RunSummaryV1
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("decoding summary: %v\n%s", err, b)
	}
	for i := range s.Telemetry.Stages {
		s.Telemetry.Stages[i].DurationMS = 0
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResultMatchesAPIRun pins a session's result to an in-process
// internal/api run of the same request, up to span durations: the
// summary cmd/hobbit -json prints for it.
func TestResultMatchesAPIRun(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, req := range []api.SubmitRequestV1{
		{
			World:   api.WorldSpecV1{Blocks: 300, Scale: 0.02, Seed: 5, FaultPlan: "rate-storm"},
			Options: core.Options{ValidatePairs: 20000},
		},
		{
			World:         api.WorldSpecV1{Blocks: 300, Scale: 0.02, Seed: 9, FaultPlan: "churn"},
			Options:       core.Options{Workers: 2, ValidatePairs: 20000},
			MonitorEpochs: 2,
		},
	} {
		_, sess := postCampaign(t, ts, submitBody(0, func(r *api.SubmitRequestV1) { *r = req }))
		got := waitResult(t, ts, sess.ID)

		w, err := req.World.World()
		if err != nil {
			t.Fatal(err)
		}
		c, err := req.Run(context.Background(), w, core.Pipeline{Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := api.EncodeRunSummaryV1(&want, c.Summary); err != nil {
			t.Fatal(err)
		}
		if g, w := withoutDurations(t, got), withoutDurations(t, want.Bytes()); !bytes.Equal(g, w) {
			t.Errorf("%+v: session result differs from the api run:\n%s\nwant:\n%s", req.World, g, w)
		}
	}
}
