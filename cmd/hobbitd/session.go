package main

import (
	"context"
	"sync"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// session is one campaign submission: the normalized request, the live
// state machine, the progress event log feeding SSE subscribers, and —
// once terminal — the result bytes. All mutable state sits behind mu;
// the done channel closes exactly once when the session reaches a
// terminal state, so waiters (result?wait=1, the load test) can block
// without polling.
type session struct {
	id       string
	world    api.WorldSpecV1
	opts     core.Options
	cacheKey string
	// monitorEpochs > 0 makes this a monitoring session: the runner
	// bootstraps, then steps the fault epoch this many times on a private
	// world (the monitor mutates the world's fault epoch, so it never
	// shares a pooled one).
	monitorEpochs int

	events *eventLog
	// reg is the session-scoped telemetry registry
	// (/v1/campaigns/{id}/metrics); the campaign writes into it while
	// running, so snapshots taken mid-run show live counters.
	reg  *telemetry.Registry
	done chan struct{}

	mu       sync.Mutex
	cancel   context.CancelFunc
	state    string
	cacheHit bool
	created  int64
	started  int64
	finished int64
	result   []byte
	errMsg   string
}

func newSession(id string, world api.WorldSpecV1, opts core.Options, key string, monitorEpochs int, createdMS int64) *session {
	return &session{
		id:            id,
		world:         world,
		opts:          opts,
		cacheKey:      key,
		monitorEpochs: monitorEpochs,
		events:        newEventLog(),
		reg:           telemetry.NewRegistry(),
		done:          make(chan struct{}),
		state:         api.StateQueued,
		created:       createdMS,
	}
}

// view renders the session resource.
func (s *session) view() api.SessionV1 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return api.SessionV1{
		ID:             s.id,
		State:          s.state,
		CacheHit:       s.cacheHit,
		World:          s.world,
		Options:        s.opts,
		CreatedUnixMS:  s.created,
		StartedUnixMS:  s.started,
		FinishedUnixMS: s.finished,
		Error:          s.errMsg,
	}
}

// setCancel installs the run's cancel func once the run context exists
// (after admission, so DELETE must synchronize with it).
func (s *session) setCancel(fn context.CancelFunc) {
	s.mu.Lock()
	s.cancel = fn
	s.mu.Unlock()
}

// abort cancels the session's run context, if it has one yet. Cancelling
// a finished (or not-yet-started) run is a harmless no-op.
func (s *session) abort() {
	s.mu.Lock()
	fn := s.cancel
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// setRunning transitions queued -> running.
func (s *session) setRunning(nowMS int64) {
	s.mu.Lock()
	s.state = api.StateRunning
	s.started = nowMS
	s.mu.Unlock()
}

// finish moves the session to a terminal state, records the outcome, and
// releases every waiter: the done channel closes and the event log stops
// accepting events, so SSE streams emit their final "done" event.
func (s *session) finish(state string, result []byte, errMsg string, nowMS int64) {
	s.mu.Lock()
	s.state = state
	s.result = result
	s.errMsg = errMsg
	s.finished = nowMS
	s.mu.Unlock()
	s.events.close()
	close(s.done)
}

// terminal reports whether the session has finished, and with what.
func (s *session) terminal() (state string, result []byte, errMsg string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case api.StateDone, api.StateFailed, api.StateCancelled:
		return s.state, s.result, s.errMsg, true
	}
	return s.state, nil, "", false
}
