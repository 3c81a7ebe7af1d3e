package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// ProgressEvent is one live observation of a running measurement stage:
// how many blocks have been measured so far, the running per-class
// tallies, and the probing load emitted to date. Events are emitted by
// pipeline stages (hobbit.Campaign after every measured block) and
// consumed by a Sink.
type ProgressEvent struct {
	// Stage names the emitting pipeline stage ("measure", "validate").
	Stage string
	// Done and Total count blocks measured so far out of the stage's
	// workload (Total 0 while unknown, e.g. while the census is still
	// streaming).
	Done, Total int
	// Classes are the running per-class block tallies.
	Classes map[string]int
	// Pings and Probes are the echo requests and TTL-limited probes of
	// the blocks measured so far (0 when the probing surface is not
	// instrumented). The prober publishes its counts once per measured
	// block, so they advance a block at a time and may include blocks
	// other workers finished after this one.
	Pings, Probes int64
}

// Sink consumes progress events. Emit may be called from the stage's
// collector goroutine and must not block for long.
type Sink interface {
	Emit(ev ProgressEvent)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ProgressEvent)

// Emit implements Sink.
func (f SinkFunc) Emit(ev ProgressEvent) { f(ev) }

// LineSink renders progress events as single text lines ("hobbit
// -progress" writes them to stderr), throttled to every Nth event plus
// the final one so a multi-million-block campaign does not drown its own
// output.
type LineSink struct {
	W io.Writer
	// Every emits one line per that many Done increments (default 100).
	// The first and last events of a stage always print.
	Every int

	mu sync.Mutex
}

// NewLineSink returns a LineSink writing to w.
func NewLineSink(w io.Writer, every int) *LineSink {
	return &LineSink{W: w, Every: every}
}

// Emit implements Sink.
func (s *LineSink) Emit(ev ProgressEvent) {
	every := s.Every
	if every <= 0 {
		every = 100
	}
	if ev.Done%every != 0 && ev.Done != ev.Total && ev.Done != 1 {
		return
	}
	classes := make([]string, 0, len(ev.Classes))
	for name, n := range ev.Classes {
		classes = append(classes, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(classes)
	line := fmt.Sprintf("%s: %d", ev.Stage, ev.Done)
	if ev.Total > 0 {
		line = fmt.Sprintf("%s: %d/%d", ev.Stage, ev.Done, ev.Total)
	}
	if len(classes) > 0 {
		line += " [" + strings.Join(classes, " ") + "]"
	}
	if ev.Pings > 0 || ev.Probes > 0 {
		line += fmt.Sprintf(" pings=%d probes=%d", ev.Pings, ev.Probes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintln(s.W, line)
}
