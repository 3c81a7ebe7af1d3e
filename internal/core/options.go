package core

import (
	"encoding/json"
	"fmt"

	"github.com/hobbitscan/hobbit/internal/hobbit"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// Options are the serializable knobs of a Pipeline run — everything a
// remote caller may legitimately choose, and nothing that names local
// resources (probing surfaces, telemetry sinks, terminator callbacks stay
// on Pipeline). The struct is the request-body schema of the hobbitd
// campaign API and, in canonical form, the options part of its result
// cache key; JSON field names are therefore part of the v1 wire contract.
//
// The zero value means "paper defaults everywhere": worker counts follow
// GOMAXPROCS, MinActive is 4, MDA probing uses the Section 4 operating
// parameters, ValidatePairs reprobes every pair, and clustering runs.
type Options struct {
	// Workers bounds measurement concurrency (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// CensusWorkers bounds the census sweep (0 = GOMAXPROCS, 1 =
	// serial). The dataset and census counters are byte-identical for
	// every value: workers scan chunks into indexed slots and one emitter
	// applies them in block order.
	CensusWorkers int `json:"census_workers"`
	// ClusterWorkers bounds the clustering stages — the MCL sweep, one
	// pool item per (component, inflation) pair with each MCL run
	// serial, and reprobe validation (0 = GOMAXPROCS, 1 = serial).
	// Output is byte-identical for every value: the stages fan index
	// spaces out and merge results in index order.
	ClusterWorkers int `json:"cluster_workers"`
	// MDA tunes the per-destination MDA runs.
	MDA probe.MDAOptions `json:"mda"`
	// MinActive is the census/probe-time eligibility threshold (0 uses
	// the paper's 4).
	MinActive int `json:"min_active"`
	// ValidatePairs bounds reprobed pairs per cluster (the paper uses
	// 20,000; 0 means all pairs).
	ValidatePairs int `json:"validate_pairs"`
	// SkipClustering stops after identical-set aggregation.
	SkipClustering bool `json:"skip_clustering"`
}

// DefaultOptions returns the paper's operating point with every implicit
// default written out: the value a zero Options behaves as (worker counts
// stay 0 = GOMAXPROCS because they are scheduling hints, not behaviour).
func DefaultOptions() Options {
	return Options{
		MDA:           probe.MDAOptions{}.Canonical(),
		MinActive:     hobbit.DefaultMinActive,
		ValidatePairs: 0, // all pairs
	}
}

// Validate rejects option values the pipeline would otherwise misread.
// Worker counts must be non-negative: a negative count used to flow into
// the pools and silently behave like the auto value instead of the serial
// run the caller probably wanted. The error names the offending field.
func (o Options) Validate() error {
	for _, f := range []struct {
		name  string
		value int
	}{
		{"workers", o.Workers},
		{"census_workers", o.CensusWorkers},
		{"cluster_workers", o.ClusterWorkers},
	} {
		if f.value < 0 {
			return fmt.Errorf("core: options: %s must be >= 0 (0 = GOMAXPROCS), got %d", f.name, f.value)
		}
	}
	if o.MinActive < 0 {
		return fmt.Errorf("core: options: min_active must be >= 0 (0 = default %d), got %d", hobbit.DefaultMinActive, o.MinActive)
	}
	if o.ValidatePairs < 0 {
		return fmt.Errorf("core: options: validate_pairs must be >= 0 (0 = all pairs), got %d", o.ValidatePairs)
	}
	if o.MDA.Confidence < 0 || o.MDA.Confidence >= 1 {
		return fmt.Errorf("core: options: mda.confidence must be in [0, 1), got %v", o.MDA.Confidence)
	}
	if o.MDA.MaxTTL > maxTTL {
		return fmt.Errorf("core: options: mda.max_ttl must be <= %d (the IPv4 TTL field is 8 bits), got %d", maxTTL, o.MDA.MaxTTL)
	}
	if o.MDA.FirstTTL > 0 && o.MDA.MaxTTL > 0 && o.MDA.FirstTTL > o.MDA.MaxTTL {
		return fmt.Errorf("core: options: mda.first_ttl %d exceeds mda.max_ttl %d", o.MDA.FirstTTL, o.MDA.MaxTTL)
	}
	return nil
}

// maxTTL is the largest TTL an IPv4 header can carry. A larger mda.max_ttl
// names no probe that can be sent, and toward a destination that drops
// every TTL-limited probe the MDA walk would record one empty row per
// TTL up to it.
const maxTTL = 255

// MaxStreamChunk bounds Pipeline.StreamChunk. The cap is a sanity rail,
// not a tuning knob: one chunk of 2^20 /24s already covers the full
// routable IPv4 space, so anything larger is a unit mistake (bytes,
// addresses) that would silently degenerate into one giant chunk that
// serializes the census.
const MaxStreamChunk = 1 << 20

// ValidateStreamChunk rejects StreamChunk values the pipeline would
// misread: negative chunks (the caller probably wanted 0 = derived from
// the input) and chunks beyond MaxStreamChunk. 0 is valid and derives
// the chunk size from the input.
func ValidateStreamChunk(n int) error {
	if n < 0 {
		return fmt.Errorf("core: stream chunk must be >= 0 (0 = size derived from the input), got %d", n)
	}
	if n > MaxStreamChunk {
		return fmt.Errorf("core: stream chunk %d exceeds max %d (one chunk already spans the IPv4 /24 space)", n, MaxStreamChunk)
	}
	return nil
}

// Canonical maps every Options value onto one representative per
// behaviour class. Worker counts are zeroed — the parallel-stage
// determinism contract (DESIGN.md §4d) guarantees output is byte-identical
// at any worker count, so they must never split a cache — implicit
// defaults become explicit, and the MDA options collapse via
// probe.MDAOptions.Canonical. mda.first_ttl folds to 1: the pipeline
// reaches MDA only through probe.FindLastHops, which replaces it with the
// echo-TTL estimate before every run. Two Options with equal Canonical
// forms drive behaviourally identical runs over the same surface.
func (o Options) Canonical() Options {
	o.Workers, o.CensusWorkers, o.ClusterWorkers = 0, 0, 0
	o.MDA = o.MDA.Canonical()
	o.MDA.FirstTTL = 1
	if o.MinActive == 0 {
		o.MinActive = hobbit.DefaultMinActive
	}
	return o
}

// CanonicalJSON renders the canonical form as compact JSON with every
// field present (no omitempty anywhere in the schema), so equal behaviour
// classes serialize to equal bytes.
func (o Options) CanonicalJSON() ([]byte, error) {
	return json.Marshal(o.Canonical())
}
