package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// tests check the tool against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDefJSON `json:"end_to_end"`
	PerLayer []metricDefJSON `json:"per_layer"`
}

type metricDefJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, tool %v", names, workloadNames())
	}
	for _, tc := range []struct {
		kind string
		json []metricDefJSON
		tool []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEndMetrics}, {"per_layer", bf.PerLayer, perLayerMetrics}} {
		if len(tc.json) != len(tc.tool) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the tool %d", tc.kind, len(tc.json), len(tc.tool))
			continue
		}
		for i, d := range tc.tool {
			if tc.json[i].Name != d.name || tc.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], tool %s [%s]", tc.kind, i, tc.json[i].Name, tc.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size, end to end and
// traced: every metric BENCHMARK.json declares must be printed with its
// unit, every ratio with its base, and no operation may fail.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkJSON(t)
	daemon := filepath.Join(t.TempDir(), "hobbitd")
	if out, err := exec.Command("go", "build", "-o", daemon, "github.com/hobbitscan/hobbit/cmd/hobbitd").CombinedOutput(); err != nil {
		t.Fatalf("building hobbitd: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, trace: traced, hobbitd: daemon, blocks: 600, ops: 2,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if name == "serve-2k" {
				cfg.ops = 8
			}
			var buf bytes.Buffer
			if err := run(context.Background(), &buf, name, cfg); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			out := buf.String()
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the JSON result: %v\n%s", name, traced, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < cfg.ops {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or with unit %q", name, traced, m.Name, m.Unit, got.Unit)
				}
				line := metricLine(lines, m.Name)
				if !strings.Contains(line, " "+m.Unit+" ") {
					t.Errorf("%s trace=%v: %s not printed with its unit: %q", name, traced, m.Name, line)
				}
				if m.Unit == "ratio" && !strings.Contains(line, "(base: ") {
					t.Errorf("%s trace=%v: ratio %s printed without its base: %q", name, traced, m.Name, line)
				}
			}
			if traced {
				if data, err := os.ReadFile(cfg.traceOut); err != nil || !bytes.Contains(data, []byte(`"spans"`)) {
					t.Errorf("%s: trace file %s not written: %v", name, cfg.traceOut, err)
				}
			}
		}
	}
}

// metricLine finds the report line of a metric.
func metricLine(lines []string, name string) string {
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 0 && f[0] == name {
			return l
		}
	}
	return ""
}
