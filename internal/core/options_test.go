package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/hobbitscan/hobbit/internal/probe"
)

func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{},
		DefaultOptions(),
		{Workers: 8, CensusWorkers: 1, ClusterWorkers: 2, ValidatePairs: 20000},
		{MDA: probe.MDAOptions{Retries: -1, AdaptiveBudget: -1}},
		{MDA: probe.MDAOptions{FirstTTL: 3, MaxTTL: 3}},
		{MDA: probe.MDAOptions{FirstTTL: 255, MaxTTL: 255}},
	}
	for _, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	bad := []struct {
		o    Options
		want string
	}{
		{Options{Workers: -1}, "workers"},
		{Options{CensusWorkers: -2}, "census_workers"},
		{Options{ClusterWorkers: -8}, "cluster_workers"},
		{Options{MinActive: -1}, "min_active"},
		{Options{ValidatePairs: -1}, "validate_pairs"},
		{Options{MDA: probe.MDAOptions{Confidence: 1.5}}, "confidence"},
		{Options{MDA: probe.MDAOptions{FirstTTL: 9, MaxTTL: 4}}, "first_ttl"},
		// The IPv4 TTL field is 8 bits.
		{Options{MDA: probe.MDAOptions{MaxTTL: 256}}, "max_ttl"},
		{Options{MDA: probe.MDAOptions{MaxTTL: 1<<31 - 1}}, "max_ttl"},
	}
	for _, tc := range bad {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted", tc.o)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %q, want mention of %q", tc.o, err, tc.want)
		}
	}
}

// TestValidateStreamChunk pins the StreamChunk guard rails: 0 derives
// the size from the input, anything up to one full /24-space chunk is
// honoured, negatives and unit-mistake sizes fail with an error naming
// the value.
func TestValidateStreamChunk(t *testing.T) {
	cases := []struct {
		n    int
		want string // "" = accept
	}{
		{0, ""},
		{1, ""},
		{64, ""},
		{4096, ""},
		{MaxStreamChunk, ""},
		{-1, "stream chunk"},
		{-5000, "stream chunk"},
		{MaxStreamChunk + 1, "exceeds"},
		{1 << 30, "exceeds"},
	}
	for _, tc := range cases {
		err := ValidateStreamChunk(tc.n)
		if tc.want == "" {
			if err != nil {
				t.Errorf("ValidateStreamChunk(%d) = %v, want nil", tc.n, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ValidateStreamChunk(%d) = %v, want mention of %q", tc.n, err, tc.want)
		}
	}
}

// TestPipelineRejectsInvalidStreamChunk: Run fails fast before building
// any stage when StreamChunk is out of range.
func TestPipelineRejectsInvalidStreamChunk(t *testing.T) {
	_, p := testPipeline(t, 100)
	p.StreamChunk = -3
	if _, err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "stream chunk") {
		t.Fatalf("Run with StreamChunk=-3: err = %v, want stream-chunk validation error", err)
	}
	p.StreamChunk = MaxStreamChunk + 1
	if _, err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Run with StreamChunk over max: err = %v, want stream-chunk validation error", err)
	}
}

// TestOptionsCanonical pins the cache-key equivalence classes: worker
// counts never split a key (the §4d determinism contract makes them pure
// scheduling), implicit defaults match their explicit spellings, the
// negative sentinels collapse, and mda.first_ttl and the ignored
// adaptive fields fold away.
func TestOptionsCanonical(t *testing.T) {
	equal := [][2]Options{
		{{Workers: 1}, {Workers: 8, CensusWorkers: 3, ClusterWorkers: 2}},
		{{}, {MinActive: 4}},
		{{}, {MDA: probe.MDAOptions{FirstTTL: 1, MaxTTL: 32, Confidence: 0.95, MaxFlows: 64, Retries: 2}}},
		{{MDA: probe.MDAOptions{Retries: -1}}, {MDA: probe.MDAOptions{Retries: -7}}},
		// MDA ignores the v1 wire's adaptive fields.
		{{MDA: probe.MDAOptions{AdaptiveBudget: 9}}, {MDA: probe.MDAOptions{AdaptiveBudget: -1}}},
		{{}, {MDA: probe.MDAOptions{Adaptive: true}}},
		{{MDA: probe.MDAOptions{Adaptive: true}}, {MDA: probe.MDAOptions{Adaptive: true, AdaptiveBudget: 9}}},
		{{}, DefaultOptions()},
		// FindLastHops replaces first_ttl before every MDA run.
		{{}, {MDA: probe.MDAOptions{FirstTTL: 9}}},
		{{MDA: probe.MDAOptions{FirstTTL: 2, MaxTTL: 16}}, {MDA: probe.MDAOptions{FirstTTL: 16, MaxTTL: 16}}},
	}
	for _, pair := range equal {
		a, _ := pair[0].CanonicalJSON()
		b, _ := pair[1].CanonicalJSON()
		if !bytes.Equal(a, b) {
			t.Errorf("canonical forms differ:\n%+v -> %s\n%+v -> %s", pair[0], a, pair[1], b)
		}
	}
	distinct := [][2]Options{
		{{}, {SkipClustering: true}},
		{{}, {MinActive: 5}},
		{{}, {ValidatePairs: 20000}},
		{{}, {MDA: probe.MDAOptions{Retries: -1}}},
	}
	for _, pair := range distinct {
		a, _ := pair[0].CanonicalJSON()
		b, _ := pair[1].CanonicalJSON()
		if bytes.Equal(a, b) {
			t.Errorf("distinct behaviours share a canonical form: %+v vs %+v -> %s", pair[0], pair[1], a)
		}
	}
	// Idempotence: canonicalizing a canonical form is the identity.
	for _, o := range []Options{{}, {MDA: probe.MDAOptions{FirstTTL: 5, Retries: -3, Adaptive: true, AdaptiveBudget: -2}}} {
		c := o.Canonical()
		if c != c.Canonical() {
			t.Errorf("Canonical not idempotent: %+v -> %+v -> %+v", o, c, c.Canonical())
		}
	}
}

// TestPipelineRejectsInvalidOptions: Run fails fast on options Validate
// rejects, instead of letting a negative worker count silently act like
// the auto value.
func TestPipelineRejectsInvalidOptions(t *testing.T) {
	_, p := testPipeline(t, 100)
	p.Workers = -1
	if _, err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("Run with Workers=-1: err = %v, want options validation error", err)
	}
}
