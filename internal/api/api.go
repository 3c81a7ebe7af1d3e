// Package api defines the versioned wire types of the Hobbit measurement
// service: the campaign-submission request schema, the session resource,
// the streamed progress event, the run summary, and the error envelope.
//
// Version policy (DESIGN.md §4g): every type name and every URL path
// carries an explicit version suffix ("V1", "/v1/"). Within a version the
// wire format may only grow — new optional fields with omitempty — and
// must never rename, retype, or repurpose an existing field; anything
// incompatible ships as V2 types under /v2/ next to the V1 ones. The
// golden files under testdata/ pin the v1 byte format, so an accidental
// break fails the tier-1 gate instead of a client.
//
// Both consumers of these types — the hobbitd daemon and cmd/hobbit
// -json — marshal through this package, so a summary produced by the CLI
// is byte-for-byte the summary the service caches and serves.
package api

import (
	"encoding/json"
	"io"
	"net/http"

	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// Version is the current API version, the prefix of every route.
const Version = "v1"

// Session states. A session is born queued (or directly done on a cache
// hit), becomes running once it holds a campaign slot, and terminates in
// exactly one of done, failed, or cancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// WorldSpecV1 names a synthetic world: the /24 universe size, the
// planted-aggregate scale, the world seed, and the adversity view (fault
// plan and epoch). Together with core.Options it fully determines a
// campaign's output, which is why the result cache keys on the pair.
type WorldSpecV1 struct {
	// Blocks is the number of /24 blocks in the universe (the daemon
	// applies its default when 0 and enforces its ceiling).
	Blocks int `json:"blocks"`
	// Scale is the scale factor for the planted Table-5 aggregates
	// (0 = the daemon's default).
	Scale float64 `json:"scale"`
	// Seed is the world and measurement seed.
	Seed uint64 `json:"seed"`
	// FaultPlan names a built-in fault plan to inject (empty = clean
	// world). A non-empty plan also enables adaptive probing, matching
	// cmd/hobbit -fault-plan.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Epoch is the world epoch to measure at (0 = first epoch).
	Epoch int `json:"epoch,omitempty"`
}

// SubmitRequestV1 is the POST /v1/campaigns body.
type SubmitRequestV1 struct {
	World   WorldSpecV1  `json:"world"`
	Options core.Options `json:"options"`
	// TimeoutMS bounds the run's wall-clock time (0 = the daemon's
	// default; values above the daemon's ceiling are clamped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wait makes the submission synchronous: the response arrives only
	// once the session terminates, and the run is tied to the request —
	// a client disconnect aborts the campaign.
	Wait bool `json:"wait,omitempty"`
	// MonitorEpochs, when > 0, turns the campaign into a monitoring
	// session: after the epoch-0 bootstrap the daemon advances the
	// world's fault epoch this many times, re-measuring incrementally
	// (mirrors cmd/hobbit -monitor-epochs). The result summary then
	// carries a monitor section, and its headline fields describe the
	// final epoch. Values above the daemon's ceiling are rejected.
	MonitorEpochs int `json:"monitor_epochs,omitempty"`
}

// SessionV1 is the campaign-session resource: POST /v1/campaigns returns
// it, GET /v1/campaigns/{id} refreshes it, and the SSE progress stream
// closes with it.
type SessionV1 struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CacheHit reports that the result was served from the cache without
	// reprobing.
	CacheHit bool         `json:"cache_hit"`
	World    WorldSpecV1  `json:"world"`
	Options  core.Options `json:"options"`
	// CreatedUnixMS / StartedUnixMS / FinishedUnixMS are wall-clock
	// timestamps (milliseconds since the Unix epoch); zero means "not
	// yet". They describe the service, not the measurement: cached and
	// cold sessions differ here even though their results are
	// byte-identical.
	CreatedUnixMS  int64 `json:"created_unix_ms"`
	StartedUnixMS  int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS int64 `json:"finished_unix_ms,omitempty"`
	// Error carries the failure message of a failed (or cancelled)
	// session.
	Error string `json:"error,omitempty"`
}

// SessionListV1 is the GET /v1/campaigns body.
type SessionListV1 struct {
	Sessions []SessionV1 `json:"sessions"`
}

// ProgressEventV1 is one live observation of a running campaign stage,
// the SSE "progress" event payload. It mirrors telemetry.ProgressEvent
// onto stable wire names. total is 0 while the census is still
// streaming and exact once it has ended, so only a stage's last event
// has done == total.
type ProgressEventV1 struct {
	Stage   string         `json:"stage"`
	Done    int            `json:"done"`
	Total   int            `json:"total"`
	Classes map[string]int `json:"classes,omitempty"`
	Pings   int64          `json:"pings"`
	Probes  int64          `json:"probes"`
}

// Progress converts a telemetry progress event to its v1 wire form.
func Progress(ev telemetry.ProgressEvent) ProgressEventV1 {
	return ProgressEventV1{
		Stage:   ev.Stage,
		Done:    ev.Done,
		Total:   ev.Total,
		Classes: ev.Classes,
		Pings:   ev.Pings,
		Probes:  ev.Probes,
	}
}

// Error codes used by the v1 endpoints.
const (
	CodeBadRequest   = "bad_request"
	CodeNotFound     = "not_found"
	CodeNotDone      = "not_done"
	CodeRunFailed    = "run_failed"
	CodeOverloaded   = "overloaded"
	CodeShuttingDown = "shutting_down"
)

// ErrorV1 is the error envelope: every non-2xx response body is exactly
// this shape.
type ErrorV1 struct {
	Error ErrorDetailV1 `json:"error"`
}

// ErrorDetailV1 carries a stable machine code and a human message.
type ErrorDetailV1 struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError writes the envelope with the given HTTP status.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ErrorV1{Error: ErrorDetailV1{Code: code, Message: message}})
}

// RunSummaryV1 is the full result of a pipeline run: cmd/hobbit -json
// emits it, and GET /v1/campaigns/{id}/result serves it. The flat probe
// totals and the classification map summarize the run; the telemetry
// section carries per-stage counters, histograms, and span timings.
// Counters and histograms are deterministic for a fixed (world, options)
// pair; span durations are wall-clock and are not.
type RunSummaryV1 struct {
	Universe    int                `json:"universe_blocks"`
	Eligible    int                `json:"eligible_blocks"`
	Pings       int64              `json:"pings"`
	Probes      int64              `json:"probes"`
	Retries     int64              `json:"retries"`
	Classes     map[string]int     `json:"classification"`
	Homogeneous int                `json:"homogeneous_blocks"`
	Measurable  int                `json:"measurable_blocks"`
	Aggregates  int                `json:"identical_set_aggregates"`
	Clusters    int                `json:"mcl_clusters"`
	Validated   int                `json:"validated_clusters"`
	Final       int                `json:"final_blocks"`
	FaultPlan   string             `json:"fault_plan,omitempty"`
	LowConf     int                `json:"low_confidence_blocks"`
	Telemetry   telemetry.Snapshot `json:"telemetry"`
	// Monitor is present only for monitoring sessions (cmd/hobbit
	// -monitor-epochs, or MonitorEpochs on the submit request): one
	// entry per epoch stepped, bootstrap included. The headline fields
	// above then describe the final epoch's output.
	Monitor *MonitorSummaryV1 `json:"monitor,omitempty"`
}

// MonitorSummaryV1 is the monitoring section of a run summary.
type MonitorSummaryV1 struct {
	Epochs []MonitorEpochV1 `json:"epochs"`
}

// MonitorEpochV1 accounts one epoch of a monitoring session: how much
// of the universe the change feed implicated, how much was actually
// re-measured, and how much cached clustering and validation work
// survived.
type MonitorEpochV1 struct {
	Epoch int `json:"epoch"`
	// All marks an epoch whose change feed degraded to the whole
	// universe (the bootstrap always does).
	All      bool `json:"all,omitempty"`
	Changed  int  `json:"changed_blocks"`
	Reprobed int  `json:"reprobed_blocks"`
	// Component and validation cache accounting (zero when the run
	// skips clustering).
	ComponentsReused      int `json:"components_reused"`
	ComponentsRecomputed  int `json:"components_recomputed"`
	ValidationsReused     int `json:"validations_reused"`
	ValidationsRecomputed int `json:"validations_recomputed"`
	// Final is the epoch's final block count.
	Final int `json:"final_blocks"`
}

// BuildRunSummaryV1 assembles the summary from a finished run's
// artifacts: the pipeline output, the instrumented probing surface, and
// the telemetry registry. universe is the size of the full /24 universe
// (len(world.Blocks())); faultPlan echoes the injected plan name.
func BuildRunSummaryV1(universe int, faultPlan string, out *core.Output, net *probe.Instrumented, reg *telemetry.Registry) RunSummaryV1 {
	sum := out.Campaign.Summary()
	s := RunSummaryV1{
		Universe:    universe,
		Eligible:    len(out.Eligible),
		Pings:       net.Pings(),
		Probes:      net.Probes(),
		Retries:     net.PingRetries() + net.ProbeRetries(),
		Classes:     make(map[string]int),
		Homogeneous: sum.Homogeneous(),
		Measurable:  sum.Measurable(),
		Aggregates:  len(out.Aggregates),
		Final:       len(out.Final),
		FaultPlan:   faultPlan,
		LowConf:     len(out.LowConfidence),
		Telemetry:   reg.Snapshot(),
	}
	for cls, n := range sum.Counts {
		s.Classes[cls.String()] = n
	}
	if out.Clustering != nil {
		s.Clusters = len(out.Clustering.Clusters)
		for _, ok := range out.Validated {
			if ok {
				s.Validated++
			}
		}
	}
	return s
}

// BuildMonitorSummaryV1 converts a monitoring session's epoch reports
// to their wire form (nil for an empty session).
func BuildMonitorSummaryV1(reps []*monitor.EpochReport) *MonitorSummaryV1 {
	if len(reps) == 0 {
		return nil
	}
	s := &MonitorSummaryV1{}
	for _, r := range reps {
		e := MonitorEpochV1{
			Epoch:                 r.Epoch,
			All:                   r.All,
			Changed:               r.Changed,
			Reprobed:              r.Reprobed,
			ComponentsReused:      r.Cluster.Reused,
			ComponentsRecomputed:  r.Cluster.Recomputed,
			ValidationsReused:     r.ValReused,
			ValidationsRecomputed: r.ValRecomputed,
		}
		if r.Output != nil {
			e.Final = len(r.Output.Final)
		}
		s.Epochs = append(s.Epochs, e)
	}
	return s
}

// EncodeRunSummaryV1 writes the summary in the canonical rendering — two-
// space indent, trailing newline, map keys sorted by encoding/json — the
// exact bytes cmd/hobbit -json prints and the daemon's result cache
// stores and replays.
func EncodeRunSummaryV1(w io.Writer, s RunSummaryV1) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
