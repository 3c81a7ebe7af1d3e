package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: github.com/hobbitscan/hobbit
cpu: Test CPU
BenchmarkAlpha-8         	     100	    1000.0 ns/op	     512 B/op	       8 allocs/op
BenchmarkBeta/workers-1-8	      50	    2000.0 ns/op
BenchmarkBeta/workers-8-8	      50	     500.0 ns/op
BenchmarkAlpha-8         	     100	    3000.0 ns/op	     256 B/op	       4 allocs/op
PASS
ok  	github.com/hobbitscan/hobbit	1.234s
`

func TestParseBenchText(t *testing.T) {
	f, err := Parse([]byte(benchText))
	if err != nil {
		t.Fatal(err)
	}
	set := f.Benchmarks
	if len(set) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(set), set)
	}
	// The duplicated Alpha runs keep the per-metric minimum, and the -8
	// suffix is stripped.
	alpha, ok := set["BenchmarkAlpha"]
	if !ok {
		t.Fatal("BenchmarkAlpha missing (suffix not stripped?)")
	}
	if alpha.NsPerOp != 1000 || alpha.BytesPerOp != 256 || alpha.AllocsPerOp != 4 {
		t.Errorf("Alpha reduced to %+v, want minima 1000 ns / 256 B / 4 allocs", alpha)
	}
	if got := set["BenchmarkBeta/workers-1"].NsPerOp; got != 2000 {
		t.Errorf("Beta/workers-1 ns/op = %v, want 2000", got)
	}
	if got := set["BenchmarkBeta/workers-8"].NsPerOp; got != 500 {
		t.Errorf("Beta/workers-8 ns/op = %v, want 500", got)
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	parsed, err := Parse([]byte(benchText))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := writeJSON(path, parsed); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	set := parsed.Benchmarks
	if len(back.Benchmarks) != len(set) {
		t.Fatalf("round trip lost benchmarks: %d -> %d", len(set), len(back.Benchmarks))
	}
	for name, m := range set {
		if b := back.Benchmarks[name]; math.Abs(b.NsPerOp-m.NsPerOp) > 1e-9 {
			t.Errorf("%s ns/op %v -> %v", name, m.NsPerOp, b.NsPerOp)
		}
	}
	if back.Host == nil || *back.Host != *parsed.Host {
		t.Errorf("round trip host = %v, want %v", back.Host, parsed.Host)
	}
	// The file is stable, valid JSON with the documented shape.
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks == nil {
		t.Fatal("written file lacks benchmarks object")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("no benchmarks here\n")); err == nil {
		t.Error("want error for input without benchmark lines")
	}
	if _, err := Parse([]byte(`{"not_benchmarks": {}}`)); err == nil {
		t.Error("want error for JSON without benchmarks key")
	}
	if _, err := Parse([]byte(`{broken`)); err == nil {
		t.Error("want error for malformed JSON")
	}
}

func TestCompare(t *testing.T) {
	old := map[string]Metrics{
		"BenchmarkStable":  {NsPerOp: 1000},
		"BenchmarkFaster":  {NsPerOp: 1000},
		"BenchmarkSlower":  {NsPerOp: 1000},
		"BenchmarkAtLimit": {NsPerOp: 1000},
		"BenchmarkGone":    {NsPerOp: 1000},
	}
	new := map[string]Metrics{
		"BenchmarkStable":  {NsPerOp: 1000},
		"BenchmarkFaster":  {NsPerOp: 400},
		"BenchmarkSlower":  {NsPerOp: 1201}, // +20.1% > 20% threshold
		"BenchmarkAtLimit": {NsPerOp: 1200}, // exactly +20% passes
		"BenchmarkNew":     {NsPerOp: 99},
	}
	r := Compare(File{Benchmarks: old}, File{Benchmarks: new})
	if len(r.Regressions) != 1 || r.Regressions[0].Name != "BenchmarkSlower" {
		t.Errorf("regressions = %+v, want exactly BenchmarkSlower", r.Regressions)
	}
	if len(r.Compared) != 4 {
		t.Errorf("compared %d benchmarks, want 4", len(r.Compared))
	}
	// Coverage drift is reported but never a regression.
	if len(r.OnlyOld) != 1 || r.OnlyOld[0] != "BenchmarkGone" {
		t.Errorf("OnlyOld = %v", r.OnlyOld)
	}
	if len(r.OnlyNew) != 1 || r.OnlyNew[0] != "BenchmarkNew" {
		t.Errorf("OnlyNew = %v", r.OnlyNew)
	}
	out := r.String()
	if !strings.Contains(out, "REGRESSION BenchmarkSlower") {
		t.Errorf("report missing regression line:\n%s", out)
	}
	if !strings.Contains(out, "4 compared, 1 regressions") {
		t.Errorf("report missing summary line:\n%s", out)
	}
}

func TestCompareNoRegressionsAgainstSelf(t *testing.T) {
	f, err := Parse([]byte(benchText))
	if err != nil {
		t.Fatal(err)
	}
	r := Compare(f, f)
	if len(r.Regressions) != 0 {
		t.Errorf("self-comparison regressed: %+v", r.Regressions)
	}
	if len(r.OnlyOld)+len(r.OnlyNew) != 0 {
		t.Errorf("self-comparison drifted: %v %v", r.OnlyOld, r.OnlyNew)
	}
}

// TestCompareMemoryMetrics pins the B/op and allocs/op gates, including
// the zero-baseline rule: a benchmark recorded allocation-free must stay
// allocation-free.
func TestCompareMemoryMetrics(t *testing.T) {
	old := map[string]Metrics{
		"BenchmarkBytes":    {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkAllocs":   {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkZero":     {NsPerOp: 100},
		"BenchmarkZeroOK":   {NsPerOp: 100},
		"BenchmarkShrink":   {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkMultiBad": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}
	new := map[string]Metrics{
		"BenchmarkBytes":    {NsPerOp: 100, BytesPerOp: 1300, AllocsPerOp: 10}, // +30% B/op
		"BenchmarkAllocs":   {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 13}, // +30% allocs/op
		"BenchmarkZero":     {NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 1},    // grew from zero
		"BenchmarkZeroOK":   {NsPerOp: 100},                                    // stayed zero
		"BenchmarkShrink":   {NsPerOp: 100, BytesPerOp: 100, AllocsPerOp: 1},   // improvements pass
		"BenchmarkMultiBad": {NsPerOp: 200, BytesPerOp: 2000, AllocsPerOp: 20}, // all three regress
	}
	r := Compare(File{Benchmarks: old}, File{Benchmarks: new})
	got := map[string]bool{}
	for _, d := range r.Regressions {
		got[d.Name+" "+d.Metric] = true
	}
	want := []string{
		"BenchmarkBytes B/op",
		"BenchmarkAllocs allocs/op",
		"BenchmarkZero B/op",
		"BenchmarkZero allocs/op",
		"BenchmarkMultiBad ns/op",
		"BenchmarkMultiBad B/op",
		"BenchmarkMultiBad allocs/op",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing regression %q in %+v", w, r.Regressions)
		}
	}
	if len(r.Regressions) != len(want) {
		t.Errorf("got %d regressions, want %d: %+v", len(r.Regressions), len(want), r.Regressions)
	}
	// Compared stays one ns/op delta per benchmark regardless of how many
	// metrics regressed, so the summary count means "benchmarks".
	if len(r.Compared) != 6 {
		t.Errorf("compared %d benchmarks, want 6", len(r.Compared))
	}
	out := r.String()
	if !strings.Contains(out, "zero baseline must not grow") {
		t.Errorf("report does not explain the zero-baseline rule:\n%s", out)
	}
	if !strings.Contains(out, "6 compared, 7 regressions") {
		t.Errorf("report missing summary line:\n%s", out)
	}
}

// TestParseSingleProcNames pins the GOMAXPROCS=1 case: go test appends no
// -N suffix, so sub-benchmark names that happen to end in a number
// (workers-1, samples-1000) must survive intact rather than being
// mistaken for the proc marker and merged together.
func TestParseSingleProcNames(t *testing.T) {
	const text = `BenchmarkPlain      	     100	    1000.0 ns/op
BenchmarkBeta/workers-1	      50	    2000.0 ns/op
BenchmarkBeta/workers-8	      50	     500.0 ns/op
BenchmarkTable/samples-1000	      10	    9000.0 ns/op
`
	f, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	set := f.Benchmarks
	for _, want := range []string{
		"BenchmarkPlain",
		"BenchmarkBeta/workers-1",
		"BenchmarkBeta/workers-8",
		"BenchmarkTable/samples-1000",
	} {
		if _, ok := set[want]; !ok {
			t.Errorf("%s missing; got %v", want, set)
		}
	}
	if len(set) != 4 {
		t.Errorf("parsed %d benchmarks, want 4", len(set))
	}
	if f.Host.GOMAXPROCS != 1 {
		t.Errorf("GOMAXPROCS = %d without a common suffix, want 1", f.Host.GOMAXPROCS)
	}
}

// TestProcSuffixCrossMatch checks the property the CI gate depends on: a
// baseline recorded at GOMAXPROCS=1 compares cleanly against a run at
// GOMAXPROCS=8, because the uniform -8 marker is stripped.
func TestProcSuffixCrossMatch(t *testing.T) {
	const oneCore = "BenchmarkBeta/workers-1	50	2000.0 ns/op\nBenchmarkPlain	100	1000.0 ns/op\n"
	const eightCore = "BenchmarkBeta/workers-1-8	50	2000.0 ns/op\nBenchmarkPlain-8	100	1000.0 ns/op\n"
	old, err := Parse([]byte(oneCore))
	if err != nil {
		t.Fatal(err)
	}
	new, err := Parse([]byte(eightCore))
	if err != nil {
		t.Fatal(err)
	}
	r := Compare(old, new)
	if len(r.Compared) != 2 || len(r.OnlyOld)+len(r.OnlyNew) != 0 {
		t.Errorf("cross-GOMAXPROCS names did not line up: %+v", r)
	}
}

// TestParseExactCounts pins which b.ReportMetric units survive parsing:
// the exactly-gated work counts and verdict shares do (reduced to the
// per-unit minimum over repeated runs, like every other metric, and kept
// through a JSON round trip); timing-like custom units do not.
func TestParseExactCounts(t *testing.T) {
	const text = `BenchmarkCampaign/workers-1-8	1	9000 ns/op	1200 blocks/op	41.5 probes/block	12 B/op	3 allocs/op
BenchmarkCampaign/workers-1-8	1	8000 ns/op	1200 blocks/op	41.5 probes/block	12 B/op	3 allocs/op
BenchmarkStages-8	1	5000 ns/op	3.2 census-ms/op	99 packets/op	7.5 paths/run
BenchmarkAblationTermination/mda-rule-8	1	7000 ns/op	0.9398 accuracy	128.0 blocks/op	204.9 probes/block
BenchmarkAblationOrder/rr-26-8	1	3000 ns/op	32.00 blocks/op	1.000 flagged-hetero	201.1 probes/block
BenchmarkPlain-8	1	100 ns/op
`
	parsed, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	set := parsed.Benchmarks
	camp := set["BenchmarkCampaign/workers-1"]
	if camp.NsPerOp != 8000 || camp.Counts["blocks/op"] != 1200 || camp.Counts["probes/block"] != 41.5 || len(camp.Counts) != 2 {
		t.Errorf("Campaign parsed as %+v", camp)
	}
	stages := set["BenchmarkStages"]
	if len(stages.Counts) != 1 || stages.Counts["packets/op"] != 99 {
		t.Errorf("Stages counts = %v, want only packets/op 99", stages.Counts)
	}
	if got := set["BenchmarkAblationTermination/mda-rule"].Counts; len(got) != 3 || got["accuracy"] != 0.9398 {
		t.Errorf("Termination counts = %v, want accuracy 0.9398 beside blocks/op and probes/block", got)
	}
	if got := set["BenchmarkAblationOrder/rr-26"].Counts; len(got) != 3 || got["flagged-hetero"] != 1 {
		t.Errorf("Order counts = %v, want flagged-hetero 1 beside blocks/op and probes/block", got)
	}
	if set["BenchmarkPlain"].Counts != nil {
		t.Errorf("Plain grew counts %v", set["BenchmarkPlain"].Counts)
	}

	path := filepath.Join(t.TempDir(), "base.json")
	if err := writeJSON(path, parsed); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	back := f.Benchmarks
	if got := back["BenchmarkCampaign/workers-1"].Counts; got["probes/block"] != 41.5 || got["blocks/op"] != 1200 {
		t.Errorf("JSON round trip counts = %v", got)
	}
	if got := back["BenchmarkAblationTermination/mda-rule"].Counts; got["accuracy"] != 0.9398 {
		t.Errorf("JSON round trip lost accuracy: %v", got)
	}
	if strings.Contains(string(data), "paths/run") || strings.Contains(string(data), "census-ms") {
		t.Errorf("ungated units leaked into the baseline:\n%s", data)
	}
}

// TestCompareExactCounts pins the exact gate: a count present on both
// sides must not move in either direction, however small the change,
// while rows missing the unit on either side stay ungated for it.
func TestCompareExactCounts(t *testing.T) {
	counts := func(kv ...any) map[string]float64 {
		m := make(map[string]float64)
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = float64(kv[i+1].(int))
		}
		return m
	}
	cases := []struct {
		name     string
		old, new map[string]float64
		want     []string // regressed units
	}{
		{"same", counts("probes/block", 40), counts("probes/block", 40), nil},
		{"grew", counts("probes/block", 40), counts("probes/block", 41), []string{"probes/block"}},
		{"shrank", counts("packets/op", 900), counts("packets/op", 899), []string{"packets/op"}},
		{"one of two moved", counts("blocks/op", 10, "probes/block", 40), counts("blocks/op", 11, "probes/block", 40), []string{"blocks/op"}},
		{"both moved", counts("blocks/op", 10, "probes/block", 40), counts("blocks/op", 11, "probes/block", 39), []string{"blocks/op", "probes/block"}},
		{"baseline lacks unit", nil, counts("probes/block", 40), nil},
		{"run lacks unit", counts("probes/block", 40), nil, nil},
		{"disjoint units", counts("blocks/op", 10), counts("packets/op", 99), nil},
		{"accuracy moved", map[string]float64{"accuracy": 0.9398}, map[string]float64{"accuracy": 0.9399}, []string{"accuracy"}},
		{"flagged-hetero moved", map[string]float64{"flagged-hetero": 0.2812}, map[string]float64{"flagged-hetero": 0.2813}, []string{"flagged-hetero"}},
		{"shares held", map[string]float64{"accuracy": 1, "flagged-hetero": 0.2812}, map[string]float64{"accuracy": 1, "flagged-hetero": 0.2812}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := map[string]Metrics{"BenchmarkX": {NsPerOp: 100, Counts: tc.old}}
			new := map[string]Metrics{"BenchmarkX": {NsPerOp: 50, Counts: tc.new}}
			r := Compare(File{Benchmarks: old}, File{Benchmarks: new})
			var got []string
			for _, d := range r.Regressions {
				got = append(got, d.Metric)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("regressed %v, want %v", got, tc.want)
			}
			if len(tc.want) > 0 && !strings.Contains(r.String(), "exact count must not change") {
				t.Errorf("report does not explain the exact gate:\n%s", r.String())
			}
		})
	}
}

// TestParseHost pins where a text run's host comes from: the goos,
// goarch and cpu header lines (repeated per package and per -count run),
// the common GOMAXPROCS suffix of the benchmark names, and the Go
// version benchdiff was built with.
func TestParseHost(t *testing.T) {
	f, err := Parse([]byte(benchText + "goos: linux\ngoarch: amd64\ncpu: Test CPU\nBenchmarkGamma-8	1	10 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU", GOMAXPROCS: 8, Go: runtime.Version()}
	if f.Host == nil || *f.Host != want {
		t.Errorf("host = %v, want %v", f.Host, &want)
	}
	base, err := Parse([]byte(`{"benchmarks": {"BenchmarkAlpha": {"ns_per_op": 1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if base.Host != nil {
		t.Errorf("baseline without a host block parsed host %v, want nil", base.Host)
	}
}

// TestReportHosts pins the three ways a comparison prints its hosts: the
// same host twice, two different hosts with a HOST MISMATCH warning, and
// a baseline that never recorded one. None of them is a regression.
func TestReportHosts(t *testing.T) {
	host := &Host{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU", GOMAXPROCS: 2, Go: "go1.24.0"}
	other := *host
	other.GOMAXPROCS = 8
	set := map[string]Metrics{"BenchmarkAlpha": {NsPerOp: 100}}
	line := `linux/amd64, cpu "Test CPU", GOMAXPROCS 2, go1.24.0`
	cases := []struct {
		name     string
		old, new *Host
		want     string
		mismatch bool
	}{
		{"match", host, host, "host old: " + line + "\nhost new: " + line + "\n", false},
		{"mismatch", host, &other, "host old: " + line + "\nhost new: " + strings.Replace(line, "GOMAXPROCS 2", "GOMAXPROCS 8", 1) + "\n", true},
		{"not recorded", nil, host, "host old: not recorded\nhost new: " + line + "\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Compare(File{Host: tc.old, Benchmarks: set}, File{Host: tc.new, Benchmarks: set})
			out := r.String()
			if !strings.HasPrefix(out, tc.want) {
				t.Errorf("report does not open with the hosts:\n%s\nwant prefix:\n%s", out, tc.want)
			}
			if got := strings.Contains(out, "HOST MISMATCH"); got != tc.mismatch {
				t.Errorf("HOST MISMATCH printed = %v, want %v:\n%s", got, tc.mismatch, out)
			}
			if len(r.Regressions) != 0 {
				t.Errorf("host difference counted as regression: %+v", r.Regressions)
			}
		})
	}
}
