// Command benchdiff compares two `go test -bench` result sets and fails
// when any benchmark regresses. It is the CI gate that keeps the
// BENCH_*.json baselines honest: the bench job reruns the suite and
// benchdiff exits non-zero if any benchmark's ns/op, B/op, or allocs/op
// grew by more than 20% over the checked-in baseline.
//
// Usage:
//
//	benchdiff [-write FILE] OLD [NEW]
//
// OLD and NEW are each either raw `go test -bench` output or a JSON file
// previously produced by -write (detected by content, not extension).
// With both OLD and NEW, benchdiff prints a comparison and exits 1 on
// regression. With only OLD and -write, it converts OLD to the JSON
// baseline format — how BENCH_<pr>.json baselines are produced.
//
// A baseline records the host it was measured on: goos, goarch, and cpu
// from go test's header lines, GOMAXPROCS from the benchmark names'
// common -N suffix (none means 1), and the Go version benchdiff itself
// was built with (the bench job builds it with the toolchain that just
// ran the benchmarks). A comparison prints both hosts and warns with a
// HOST MISMATCH line when they differ, because ns/op then compares
// machines as well as code; the warning never fails the run. A baseline
// written before hosts were recorded reads as "not recorded".
//
// Repeated runs of the same benchmark (go test -count=N) keep the
// per-metric minimum, not the mean: the minimum is the least-noise
// estimate of a benchmark's true cost, because scheduler and cache
// interference only ever add time. CI therefore runs every bench job
// with -count=3, and baselines must be refreshed the same way so both
// sides of the comparison are minima over equal sample counts:
//
//	go test -run xxx -bench=. -benchtime=1x -count=3 -benchmem . > bench.txt
//	go run ./cmd/benchdiff -write BENCH_4.json bench.txt
//
// (Same procedure for BENCH_SCALE.json, with -bench '^BenchmarkScale$'
// and the bench.txt from the scale job.)
//
// All three metrics are gated. B/op and allocs/op additionally enforce a
// zero-baseline rule: a benchmark whose baseline is allocation-free must
// stay allocation-free — any growth from zero is a regression, since a
// fractional threshold over zero would allow anything. Baselines must
// therefore be recorded with -benchmem, as the CI bench job does.
// Benchmarks present in only one input are reported but never fail the
// run (suites grow; baselines are refreshed by the PR that grows them).
//
// Deterministic work counts and verdict shares a benchmark reports with
// b.ReportMetric — the units in exactUnits: probes/block, packets/op,
// blocks/op, accuracy, flagged-hetero — are kept too and gated exactly:
// when a benchmark carries the unit in both the baseline and the run, any
// change at all is a regression. Probe counts are the paper's own cost
// metric and, at a fixed iteration count (the bench job's -benchtime=1x),
// a pure function of the seed, as are the ablations' verdict shares over
// their fixed block samples, so a pure speed change must leave them
// untouched. A row whose baseline lacks the unit stays ungated for it
// until a baseline refresh records it. Every other custom unit is
// dropped.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's parsed result. Repeated runs of the same
// benchmark keep the per-metric minimum (see the package comment).
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Counts maps each exactly-gated unit the benchmark reported to its
	// value (see exactUnits).
	Counts map[string]float64 `json:"counts,omitempty"`
	runs   int
}

// exactUnits are the b.ReportMetric units benchdiff keeps and gates
// exactly: deterministic work counts and verdict shares, not timings.
var exactUnits = map[string]bool{
	"probes/block":   true,
	"packets/op":     true,
	"blocks/op":      true,
	"accuracy":       true,
	"flagged-hetero": true,
}

// maxRegress is the fractional growth of ns/op, B/op, or allocs/op that
// still passes (0.20 = +20%).
const maxRegress = 0.20

// File is the JSON baseline shape.
type File struct {
	// Host is nil for a baseline written before hosts were recorded.
	Host       *Host              `json:"host,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Host identifies the machine and toolchain a result set was measured on.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (h *Host) String() string {
	if h == nil {
		return "not recorded"
	}
	return fmt.Sprintf("%s/%s, cpu %q, GOMAXPROCS %d, %s", h.GOOS, h.GOARCH, h.CPU, h.GOMAXPROCS, h.Go)
}

func main() {
	write := flag.String("write", "", "write the last input's parsed results to this JSON file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-write FILE] OLD [NEW]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		flag.Usage()
		os.Exit(2)
	}

	sets := make([]File, flag.NArg())
	for i, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if sets[i], err = Parse(data); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	if *write != "" {
		if err := writeJSON(*write, sets[len(sets)-1]); err != nil {
			fatal(err)
		}
	}
	if flag.NArg() == 2 {
		report := Compare(sets[0], sets[1])
		fmt.Print(report.String())
		if len(report.Regressions) > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// Parse reads either raw `go test -bench` output or the JSON baseline
// format, detected by content.
func Parse(data []byte) (File, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var f File
		if err := json.Unmarshal(trimmed, &f); err != nil {
			return File{}, err
		}
		if f.Benchmarks == nil {
			return File{}, fmt.Errorf("JSON input has no \"benchmarks\" object")
		}
		return f, nil
	}
	return parseBenchText(data)
}

type rawLine struct {
	name         string
	ns, bpo, apo float64
	counts       map[string]float64
}

// parseBenchText extracts benchmark lines of the form
//
//	BenchmarkName-8   100   123.4 ns/op   45 B/op   6 allocs/op   1.5 extra/unit
//
// When every benchmark in the file carries the same trailing -N marker —
// the GOMAXPROCS suffix go test appends on multi-core hosts — it is
// stripped, so baselines recorded at GOMAXPROCS=1 (no suffix) line up with
// CI runs at GOMAXPROCS=N. A trailing -N that varies across lines is part
// of real sub-benchmark names (workers-1, samples-1000) and is kept.
// The host comes from the goos/goarch/cpu header lines, that suffix, and
// runtime.Version (see the package comment).
func parseBenchText(data []byte) (File, error) {
	var lines []rawLine
	host := Host{Go: runtime.Version()}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch key, val, _ := strings.Cut(line, ": "); key {
		case "goos":
			host.GOOS = val
		case "goarch":
			host.GOARCH = val
		case "cpu":
			host.CPU = val
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark… line
		}
		// Value/unit pairs follow the iteration count.
		l := rawLine{name: fields[0]}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				l.ns, seen = v, true
			case "B/op":
				l.bpo = v
			case "allocs/op":
				l.apo = v
			default:
				if exactUnits[fields[i+1]] {
					if l.counts == nil {
						l.counts = make(map[string]float64)
					}
					l.counts[fields[i+1]] = v
				}
			}
		}
		if seen {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	if len(lines) == 0 {
		return File{}, fmt.Errorf("no benchmark result lines found")
	}
	suffix := commonProcSuffix(lines)
	host.GOMAXPROCS = 1
	if suffix != "" {
		// commonProcSuffix only returns a suffix whose digits parse.
		host.GOMAXPROCS, _ = strconv.Atoi(suffix[1:])
	}
	out := make(map[string]Metrics)
	for _, l := range lines {
		name := strings.TrimSuffix(l.name, suffix)
		m, ok := out[name]
		if !ok {
			m = Metrics{NsPerOp: l.ns, BytesPerOp: l.bpo, AllocsPerOp: l.apo, Counts: l.counts}
		} else {
			m.NsPerOp = math.Min(m.NsPerOp, l.ns)
			m.BytesPerOp = math.Min(m.BytesPerOp, l.bpo)
			m.AllocsPerOp = math.Min(m.AllocsPerOp, l.apo)
			for unit, v := range l.counts {
				if m.Counts == nil {
					m.Counts = make(map[string]float64)
				}
				if old, seen := m.Counts[unit]; !seen || v < old {
					m.Counts[unit] = v
				}
			}
		}
		m.runs++
		out[name] = m
	}
	return File{Host: &host, Benchmarks: out}, nil
}

// commonProcSuffix returns the trailing "-N" shared by every benchmark
// name in the run, or "" when the lines disagree (then any trailing
// number is a sub-benchmark name, not the GOMAXPROCS marker).
func commonProcSuffix(lines []rawLine) string {
	var suffix string
	for i, l := range lines {
		j := strings.LastIndex(l.name, "-")
		if j < 0 {
			return ""
		}
		if _, err := strconv.Atoi(l.name[j+1:]); err != nil {
			return ""
		}
		if s := l.name[j:]; i == 0 {
			suffix = s
		} else if s != suffix {
			return ""
		}
	}
	return suffix
}

// Delta is one compared (benchmark, metric) pair.
type Delta struct {
	Name     string
	Metric   string // "ns/op", "B/op", "allocs/op", or an exact unit
	Old, New float64
}

// Ratio is New/Old (1.0 = unchanged; 0 when Old is 0).
func (d Delta) Ratio() float64 {
	if d.Old == 0 {
		return 0
	}
	return d.New / d.Old
}

// Report is the outcome of a comparison.
type Report struct {
	OldHost, NewHost *Host
	Regressions      []Delta // any metric grew beyond its threshold
	Compared         []Delta // ns/op of every benchmark present in both sets
	OnlyOld          []string
	OnlyNew          []string
}

// Compare evaluates new against old. A benchmark regresses when ns/op,
// B/op, or allocs/op grew by more than maxRegress — and, for B/op and
// allocs/op, when a zero baseline grew at all: zero-alloc paths are a
// contract, and a fractional threshold over zero would allow anything —
// or when an exact count present on both sides changed in either
// direction.
func Compare(oldFile, newFile File) Report {
	old, new := oldFile.Benchmarks, newFile.Benchmarks
	r := Report{OldHost: oldFile.Host, NewHost: newFile.Host}
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n, ok := new[name]
		if !ok {
			r.OnlyOld = append(r.OnlyOld, name)
			continue
		}
		o := old[name]
		r.Compared = append(r.Compared, Delta{Name: name, Metric: "ns/op", Old: o.NsPerOp, New: n.NsPerOp})
		checks := []struct {
			metric    string
			old, new  float64
			gateZeros bool
		}{
			{"ns/op", o.NsPerOp, n.NsPerOp, false},
			{"B/op", o.BytesPerOp, n.BytesPerOp, true},
			{"allocs/op", o.AllocsPerOp, n.AllocsPerOp, true},
		}
		for _, c := range checks {
			grew := (c.old > 0 && c.new > c.old*(1+maxRegress)) ||
				(c.gateZeros && c.old == 0 && c.new > 0)
			if grew {
				r.Regressions = append(r.Regressions, Delta{Name: name, Metric: c.metric, Old: c.old, New: c.new})
			}
		}
		units := make([]string, 0, len(o.Counts))
		for unit := range o.Counts {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if nv, ok := n.Counts[unit]; ok && nv != o.Counts[unit] {
				r.Regressions = append(r.Regressions, Delta{Name: name, Metric: unit, Old: o.Counts[unit], New: nv})
			}
		}
	}
	for name := range new {
		if _, ok := old[name]; !ok {
			r.OnlyNew = append(r.OnlyNew, name)
		}
	}
	sort.Strings(r.OnlyNew)
	return r
}

// String renders the report for the CI log: both hosts, regressions,
// then the full comparison, then coverage differences.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host old: %s\nhost new: %s\n", r.OldHost, r.NewHost)
	if r.OldHost != nil && r.NewHost != nil && *r.OldHost != *r.NewHost {
		b.WriteString("HOST MISMATCH: old and new ran on different hosts, so ns/op compares machines as well as code\n")
	}
	for _, d := range r.Regressions {
		if exactUnits[d.Metric] {
			fmt.Fprintf(&b, "REGRESSION %-60s %14.4g -> %14.4g %s (exact count must not change)\n",
				d.Name, d.Old, d.New, d.Metric)
			continue
		}
		if d.Old == 0 {
			fmt.Fprintf(&b, "REGRESSION %-60s %14.1f -> %14.1f %s (zero baseline must not grow)\n",
				d.Name, d.Old, d.New, d.Metric)
			continue
		}
		fmt.Fprintf(&b, "REGRESSION %-60s %14.1f -> %14.1f %s (%.2fx > allowed %.2fx)\n",
			d.Name, d.Old, d.New, d.Metric, d.Ratio(), 1+maxRegress)
	}
	for _, d := range r.Compared {
		fmt.Fprintf(&b, "ok         %-60s %14.1f -> %14.1f ns/op (%.2fx)\n", d.Name, d.Old, d.New, d.Ratio())
	}
	for _, name := range r.OnlyOld {
		fmt.Fprintf(&b, "only-old   %s\n", name)
	}
	for _, name := range r.OnlyNew {
		fmt.Fprintf(&b, "only-new   %s\n", name)
	}
	fmt.Fprintf(&b, "%d compared, %d regressions\n", len(r.Compared), len(r.Regressions))
	return b.String()
}

// writeJSON writes the parsed set in the JSON baseline format with sorted
// keys (json.Marshal sorts map keys) and a trailing newline.
func writeJSON(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
