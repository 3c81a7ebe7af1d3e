package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/blockmap"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// cli parses a command line as main does, with the report going to
// stdout (nil means os.Stdout).
func cli(t *testing.T, stdout io.Writer, args ...string) runConfig {
	t.Helper()
	rc, err := parseFlags(flag.NewFlagSet("hobbit", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	rc.stdout = stdout
	return rc
}

func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	dump := filepath.Join(t.TempDir(), "map.txt")
	if err := run(context.Background(), cli(t, nil, "-blocks=500", "-scale=0.02", "-seed=7", "-dump="+dump, "-top=5")); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks, err := blockmap.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Error("dumped block map is empty")
	}
}

// TestRunDumpError pins the -dump failure path: a block map the file
// system cannot take fails the run instead of being reported written.
func TestRunDumpError(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var stdout bytes.Buffer
	err := run(context.Background(), cli(t, &stdout, "-blocks=300", "-scale=0.02", "-seed=7", "-dump=/dev/full", "-top=3"))
	if err == nil {
		t.Fatal("run with -dump /dev/full succeeded")
	}
	if strings.Contains(stdout.String(), "block map written") {
		t.Errorf("run reported the failed dump as written:\n%s", stdout.String())
	}
}

func TestRunSkipClustering(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	if err := run(context.Background(), cli(t, nil, "-blocks=300", "-scale=0.02", "-seed=7", "-workers=2", "-skip-clustering", "-top=3")); err != nil {
		t.Fatal(err)
	}
}

// jsonSummary mirrors the -json output for shape assertions.
type jsonSummary struct {
	Universe  int            `json:"universe_blocks"`
	Eligible  int            `json:"eligible_blocks"`
	Pings     int64          `json:"pings"`
	Probes    int64          `json:"probes"`
	Classes   map[string]int `json:"classification"`
	Final     int            `json:"final_blocks"`
	Telemetry struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
		Stages []struct {
			Name       string  `json:"name"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"stages"`
	} `json:"telemetry"`
}

func runJSON(t *testing.T, seed uint64) (jsonSummary, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), cli(t, &buf,
		"-blocks=300", "-scale=0.02", fmt.Sprint("-seed=", seed), "-workers=4", "-top=3", "-json"))
	if err != nil {
		t.Fatal(err)
	}
	var s jsonSummary
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, buf.String())
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	return s, raw
}

// TestRunJSONShape is the golden-style assertion on the -json summary:
// every top-level key the seed shipped plus the new telemetry section.
// TestRunOutputFile: -output streams per-/24 records during the run and
// closes the document with the run summary; the finished file is one
// well-formed JSON object (the nightly CI job asserts the same shape
// with jq), and the record stream covers every measured block.
func TestRunOutputFile(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	for _, streamChunk := range []int{0, 32} {
		path := filepath.Join(t.TempDir(), "out.json")
		if err := run(context.Background(), cli(t, io.Discard,
			"-blocks=300", "-scale=0.02", "-seed=7", fmt.Sprint("-stream-chunk=", streamChunk),
			"-output="+path, "-top=3")); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Version int               `json:"version"`
			Blocks  []json.RawMessage `json:"blocks"`
			Summary jsonSummary       `json:"summary"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("chunk=%d: -output file is not valid JSON: %v", streamChunk, err)
		}
		if doc.Version != 1 {
			t.Errorf("chunk=%d: version = %d", streamChunk, doc.Version)
		}
		if len(doc.Blocks) == 0 || len(doc.Blocks) != doc.Summary.Eligible {
			t.Errorf("chunk=%d: %d block records, want one per eligible block (%d)",
				streamChunk, len(doc.Blocks), doc.Summary.Eligible)
		}
		if doc.Summary.Final == 0 || doc.Summary.Universe != 300 {
			t.Errorf("chunk=%d: implausible summary trailer: %+v", streamChunk, doc.Summary)
		}
		var rec struct {
			Block string `json:"block"`
			Class string `json:"class"`
		}
		if err := json.Unmarshal(doc.Blocks[0], &rec); err != nil || rec.Block == "" || rec.Class == "" {
			t.Errorf("chunk=%d: malformed first record %s (%v)", streamChunk, doc.Blocks[0], err)
		}
	}
}

// TestRunRejectsBadStreamChunk: the CLI surfaces core.ValidateStreamChunk
// before building the world.
func TestRunRejectsBadStreamChunk(t *testing.T) {
	for _, chunk := range []int{-1, 1<<20 + 1} {
		err := run(context.Background(), cli(t, io.Discard, "-blocks=100", fmt.Sprint("-stream-chunk=", chunk)))
		if err == nil || !strings.Contains(err.Error(), "stream chunk") {
			t.Errorf("streamChunk=%d: err = %v, want stream-chunk validation error", chunk, err)
		}
	}
}

// TestRunRejectsNegativeTop: a negative -top fails with the other flag
// errors, before the world is built, instead of reaching
// aggregate.TopBySize after the whole run and panicking there.
func TestRunRejectsNegativeTop(t *testing.T) {
	var stdout bytes.Buffer
	err := run(context.Background(), cli(t, &stdout, "-blocks=100", "-top=-1"))
	if err == nil || !strings.Contains(err.Error(), "-top") {
		t.Errorf("top=-1: err = %v, want a -top error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("top=-1 built the world before failing: %q", stdout.String())
	}
}

func TestRunJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	s, raw := runJSON(t, 7)
	for _, key := range []string{
		"universe_blocks", "eligible_blocks", "pings", "probes", "retries",
		"classification", "homogeneous_blocks", "measurable_blocks",
		"identical_set_aggregates", "mcl_clusters", "validated_clusters",
		"final_blocks", "telemetry",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("-json output missing key %q", key)
		}
	}
	if s.Universe != 300 || s.Eligible == 0 || s.Pings == 0 || s.Probes == 0 {
		t.Errorf("implausible summary: %+v", s)
	}

	// The telemetry section reports per-stage durations…
	stages := make(map[string]bool)
	for _, st := range s.Telemetry.Stages {
		stages[st.Name] = true
		if st.DurationMS < 0 {
			t.Errorf("stage %s has negative duration", st.Name)
		}
	}
	for _, want := range []string{"census", "measure", "aggregate", "cluster", "validate"} {
		if !stages[want] {
			t.Errorf("telemetry stages missing %q: %+v", want, s.Telemetry.Stages)
		}
	}
	// …and per-stage probe/ping counts consistent with the flat totals.
	c := s.Telemetry.Counters
	if c["probe.measure.probes"] == 0 || c["probe.measure.pings"] == 0 {
		t.Errorf("measure-stage probe counters empty: %v", c)
	}
	if got := c["probe.measure.probes"] + c["probe.validate.probes"]; got != s.Probes {
		t.Errorf("per-stage probes %d != total %d", got, s.Probes)
	}
	if got := c["probe.measure.pings"] + c["probe.validate.pings"]; got != s.Pings {
		t.Errorf("per-stage pings %d != total %d", got, s.Pings)
	}
	if c["campaign.blocks_measured"] != int64(s.Eligible) {
		t.Errorf("blocks_measured %d != eligible %d", c["campaign.blocks_measured"], s.Eligible)
	}
	if s.Telemetry.Histograms["campaign.probed_per_block"].Count != int64(s.Eligible) {
		t.Errorf("probed_per_block histogram = %+v", s.Telemetry.Histograms)
	}
}

// TestRunJSONDeterministic: two same-seed runs must agree on every counter
// (timings excluded) — telemetry doubles as a regression check on
// measurement load.
func TestRunJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	s1, _ := runJSON(t, 7)
	s2, _ := runJSON(t, 7)
	if !reflect.DeepEqual(s1.Telemetry.Counters, s2.Telemetry.Counters) {
		t.Errorf("same-seed counter snapshots differ:\n%v\n%v",
			s1.Telemetry.Counters, s2.Telemetry.Counters)
	}
	if s1.Pings != s2.Pings || s1.Probes != s2.Probes || s1.Final != s2.Final {
		t.Errorf("same-seed summaries differ: %+v vs %+v", s1, s2)
	}
	// And a different seed actually moves the load, so the check has
	// teeth.
	s3, _ := runJSON(t, 8)
	if reflect.DeepEqual(s1.Telemetry.Counters, s3.Telemetry.Counters) {
		t.Error("different seeds produced identical counter snapshots")
	}
}

// TestRunRejectsNegativeWorkers pins the flag-validation bugfix: a
// negative worker count used to fall through to the pools and silently
// behave like the auto value; now core.Options.Validate fails fast with
// the offending field named, before the world is even built.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	cases := []struct {
		field string
		flag  string
	}{
		{"workers", "-workers=-1"},
		{"census_workers", "-census-workers=-2"},
		{"cluster_workers", "-cluster-workers=-8"},
	}
	for _, tc := range cases {
		err := run(context.Background(), cli(t, nil, "-blocks=10", tc.flag))
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("%s: unhelpful error %q", tc.field, err)
		}
	}
	// Zero remains the documented auto value, not an error.
	if err := run(context.Background(), cli(t, io.Discard,
		"-blocks=60", "-scale=0.02", "-seed=7", "-top=1", "-skip-clustering")); err != nil {
		t.Errorf("zero worker counts rejected: %v", err)
	}
}

// TestRunMetricsServerLifecycle pins the -metrics-addr bugfix: the
// listener binds synchronously (a bad address fails the run), serves the
// live snapshot while the pipeline executes, and is gone — gracefully
// shut down and joined — by the time run returns.
func TestRunMetricsServerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	var addr string
	rc := cli(t, io.Discard, "-blocks=60", "-scale=0.02", "-seed=7", "-top=1", "-skip-clustering",
		"-metrics-addr=127.0.0.1:0")
	rc.metricsReady = func(a net.Addr) {
		addr = a.String()
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			t.Errorf("metrics fetch during run: %v", err)
			return
		}
		defer resp.Body.Close()
		var snap map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Errorf("metrics snapshot not JSON: %v", err)
		}
	}
	err := run(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("metricsReady hook never ran")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Error("metrics listener still accepting after run returned")
	}

	// And the synchronous bind: an unusable address is a startup error.
	err = run(context.Background(), cli(t, nil, "-blocks=60", "-scale=0.02", "-metrics-addr=256.0.0.1:bad"))
	if err == nil || !strings.Contains(err.Error(), "metrics server") {
		t.Errorf("bad -metrics-addr: err = %v, want a metrics server error", err)
	}
}

// TestRunUnknownFaultPlan pins the -fault-plan error path.
func TestRunUnknownFaultPlan(t *testing.T) {
	err := run(context.Background(), cli(t, io.Discard,
		"-blocks=60", "-scale=0.02", "-seed=7", "-fault-plan=meteor-strike"))
	if err == nil || !strings.Contains(err.Error(), "meteor-strike") {
		t.Fatalf("unknown plan error = %v", err)
	}
}

// TestRunFaultPlanJSON smoke-runs a faulted campaign end to end through
// the CLI and checks the summary surfaces the plan and its fallout.
func TestRunFaultPlanJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	var buf bytes.Buffer
	err := run(context.Background(), cli(t, &buf,
		"-blocks=300", "-scale=0.02", "-seed=7", "-workers=4", "-top=3", "-fault-plan=rate-storm", "-json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, buf.String())
	}
	if got := raw["fault_plan"]; got != "rate-storm" {
		t.Errorf("fault_plan = %v, want rate-storm", got)
	}
	if _, ok := raw["low_confidence_blocks"]; !ok {
		t.Error("low_confidence_blocks missing from summary")
	}
	tel := raw["telemetry"].(map[string]any)
	counters := tel["counters"].(map[string]any)
	if counters["campaign.degraded_blocks"] == nil || counters["campaign.degraded_blocks"].(float64) == 0 {
		t.Errorf("rate-storm run recorded no degraded blocks: %v", counters["campaign.degraded_blocks"])
	}
}

// TestRunMonitorEpochs drives the continuous-monitoring mode through
// the CLI: the -json summary grows a monitor section with one entry
// per epoch (bootstrap included), post-bootstrap epochs reprobe strict
// subsets, and the headline fields describe the final epoch.
func TestRunMonitorEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test is slow")
	}
	var buf bytes.Buffer
	err := run(context.Background(), cli(t, &buf,
		"-blocks=400", "-scale=0.02", "-seed=7", "-workers=2", "-fault-plan=flap",
		"-monitor-epochs=2", "-top=3", "-json"))
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Eligible int `json:"eligible_blocks"`
		Final    int `json:"final_blocks"`
		Monitor  *struct {
			Epochs []struct {
				Epoch    int  `json:"epoch"`
				All      bool `json:"all"`
				Reprobed int  `json:"reprobed_blocks"`
			} `json:"epochs"`
		} `json:"monitor"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("parsing -json output: %v", err)
	}
	if sum.Monitor == nil || len(sum.Monitor.Epochs) != 3 {
		t.Fatalf("monitor section %+v, want 3 epochs", sum.Monitor)
	}
	if !sum.Monitor.Epochs[0].All || sum.Monitor.Epochs[0].Reprobed != sum.Eligible {
		t.Fatalf("bootstrap epoch %+v, want All with Reprobed == %d", sum.Monitor.Epochs[0], sum.Eligible)
	}
	for _, e := range sum.Monitor.Epochs[1:] {
		if e.All || e.Reprobed >= sum.Eligible {
			t.Errorf("epoch %d reprobed %d of %d — not incremental", e.Epoch, e.Reprobed, sum.Eligible)
		}
	}
}

func TestRunMonitorEpochsFlagErrors(t *testing.T) {
	if err := run(context.Background(), cli(t, nil, "-blocks=100", "-monitor-epochs=-1")); err == nil {
		t.Error("negative -monitor-epochs accepted")
	}
	err := run(context.Background(), cli(t, nil, "-blocks=100", "-monitor-epochs=2", "-output=x.json"))
	if err == nil || !strings.Contains(err.Error(), "-output") {
		t.Errorf("-output with -monitor-epochs: err = %v, want rejection", err)
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

// TestJSONMatchesAPIRun pins what the package doc promises: the
// campaign flags form the api.SubmitRequestV1 hobbitd takes, with
// validate_pairs fixed at 20000, and -json prints the summary an
// in-process internal/api run of that request produces (the one hobbitd
// serves for it), up to span durations.
func TestJSONMatchesAPIRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		req  api.SubmitRequestV1
	}{
		{
			[]string{"-blocks=300", "-scale=0.02", "-seed=5", "-fault-plan=rate-storm"},
			api.SubmitRequestV1{
				World:   api.WorldSpecV1{Blocks: 300, Scale: 0.02, Seed: 5, FaultPlan: "rate-storm"},
				Options: core.Options{ValidatePairs: 20000},
			},
		},
		{
			[]string{"-blocks=300", "-scale=0.02", "-seed=9", "-fault-plan=churn", "-monitor-epochs=2", "-workers=2"},
			api.SubmitRequestV1{
				World:         api.WorldSpecV1{Blocks: 300, Scale: 0.02, Seed: 9, FaultPlan: "churn"},
				Options:       core.Options{Workers: 2, ValidatePairs: 20000},
				MonitorEpochs: 2,
			},
		},
	} {
		var got bytes.Buffer
		rc := cli(t, &got, append(tc.args, "-json")...)
		if !reflect.DeepEqual(rc.req, tc.req) {
			t.Errorf("%v: request %+v, want %+v", tc.args, rc.req, tc.req)
		}
		if err := run(context.Background(), rc); err != nil {
			t.Fatal(err)
		}
		w, err := tc.req.World.World()
		if err != nil {
			t.Fatal(err)
		}
		c, err := tc.req.Run(context.Background(), w, core.Pipeline{Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := api.EncodeRunSummaryV1(&want, c.Summary); err != nil {
			t.Fatal(err)
		}
		if g, w := withoutDurations(t, got.Bytes()), withoutDurations(t, want.Bytes()); !bytes.Equal(g, w) {
			t.Errorf("%v: -json differs from the api run of its request:\n%s\nwant:\n%s", tc.args, g, w)
		}
	}
}
