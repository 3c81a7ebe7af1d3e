package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// span is one timed call into a layer. Spans of one operation share a
// trace id ("<workload>/<op>"); parent names the span that caused this
// one (0 for a root). Busy times of the simulator and the fault plan are
// summed child durations, recorded as attributes rather than one span
// per probe.
type span struct {
	Trace  string           `json:"trace"`
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	CPU    int64            `json:"cpu_ns"`
	Self   int64            `json:"self_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	cpu0   time.Duration
}

// tracer keeps spans in memory; write renders them once the run ends.
// A nil tracer records nothing, so untraced code paths share the calls.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span; parent may be nil.
func (t *tracer) start(trace, name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Trace: trace, Name: name, Start: time.Since(t.origin).Nanoseconds(), cpu0: cpuTime()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes a span, recording its CPU delta (process-wide: the layers
// fan out over worker goroutines, so per-thread CPU would miss work).
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	cpu := (cpuTime() - s.cpu0).Nanoseconds()
	t.mu.Lock()
	s.End, s.CPU = end, cpu
	t.mu.Unlock()
}

// attr attaches a count or summed duration to a span.
func (t *tracer) attr(s *span, key string, v int64) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] = v
	t.mu.Unlock()
}

// write computes every span's self time (its duration minus the union
// of its children's intervals) and writes the trace as JSON.
func (t *tracer) write(path string, host hostInfo, workload string, seed uint64, layer map[string]metricValue) error {
	t.mu.Lock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		s.Self = selfTime(interval{s.Start, s.End}, children[s.ID])
	}
	doc := struct {
		Host     hostInfo               `json:"host"`
		Workload string                 `json:"workload"`
		Seed     uint64                 `json:"seed"`
		Spans    []*span                `json:"spans"`
		Metrics  map[string]metricValue `json:"per_layer"`
	}{host, workload, seed, t.spans, layer}
	data, err := json.MarshalIndent(doc, "", "  ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerClock sums the calls into one layer and the wall time spent
// inside them, across every worker goroutine.
type layerClock struct {
	calls atomic.Int64
	busy  atomic.Int64
}

func (c *layerClock) add(d time.Duration) {
	c.calls.Add(1)
	c.busy.Add(int64(d))
}

// clockReading is a layerClock value at one instant; deltas between two
// readings attribute calls and busy time to the span between them.
type clockReading struct{ calls, busy int64 }

func (c *layerClock) read() clockReading {
	return clockReading{calls: c.calls.Load(), busy: c.busy.Load()}
}

func (r clockReading) sub(o clockReading) clockReading {
	return clockReading{calls: r.calls - o.calls, busy: r.busy - o.busy}
}

// instrument builds the probing surface every run uses: the simulator
// under probe.Instrumented, timed by clock when it is non-nil.
func instrument(w *netsim.World, reg *telemetry.Registry, stage string, clock *layerClock) *probe.Instrumented {
	var n probe.Network = probe.NewSimNetwork(w)
	if clock != nil {
		n = timedNet{inner: n, clock: clock}
	}
	return probe.Instrument(n, reg, stage)
}

// timedNet times every call into the simulator. It sits underneath
// probe.Instrumented, which keeps owning stage attribution and the
// retry and degradation observers, so wrapping changes no counter.
type timedNet struct {
	inner probe.Network
	clock *layerClock
}

func (n timedNet) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	t := time.Now()
	r, ok := n.inner.Ping(dst, seq)
	n.clock.add(time.Since(t))
	return r, ok
}

func (n timedNet) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	t := time.Now()
	r := n.inner.Probe(dst, ttl, flowID, salt)
	n.clock.add(time.Since(t))
	return r
}

// timedFaults times every fault-plan query the simulator's reply path
// makes. It forwards netsim.DeltaView too, so the monitor's selective
// reprobing sees the same change sets through the wrapper.
type timedFaults struct {
	sched *faultplan.Schedule
	clock *layerClock
}

func (f timedFaults) Blackholed(epoch int, dst iputil.Addr) bool {
	t := time.Now()
	v := f.sched.Blackholed(epoch, dst)
	f.clock.add(time.Since(t))
	return v
}

func (f timedFaults) RateBoost(epoch int, popID int32) float64 {
	t := time.Now()
	v := f.sched.RateBoost(epoch, popID)
	f.clock.add(time.Since(t))
	return v
}

func (f timedFaults) LossBoost(epoch int, vantage int) float64 {
	t := time.Now()
	v := f.sched.LossBoost(epoch, vantage)
	f.clock.add(time.Since(t))
	return v
}

func (f timedFaults) FlapKey(epoch int, b iputil.Block24) (uint64, bool) {
	t := time.Now()
	k, ok := f.sched.FlapKey(epoch, b)
	f.clock.add(time.Since(t))
	return k, ok
}

func (f timedFaults) EpochDelta(e1, e2 int) netsim.RouteDelta {
	return f.sched.EpochDelta(e1, e2)
}

var _ netsim.DeltaView = timedFaults{}
