package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/parallel"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// serverConfig bounds the daemon: how big a requested universe may be,
// how many campaigns run at once (the parallel.Limiter), how many worlds
// and results stay warm, and how long one run may take. The zero value
// of any field falls back to the listed default, and hobbitd's flags take
// their defaults from withDefaults.
type serverConfig struct {
	// DefaultWorld fills the blocks/scale a submission omits.
	DefaultWorld api.WorldSpecV1
	// MaxBlocks is the per-request universe ceiling.
	MaxBlocks int
	// MaxCampaigns bounds concurrently *running* campaigns (0 =
	// GOMAXPROCS); submissions beyond it queue on the limiter.
	MaxCampaigns int
	// MaxWorlds bounds the world pool.
	MaxWorlds int
	// MaxResults bounds the result cache.
	MaxResults int
	// MaxSessions bounds retained sessions; once every retained session
	// is still unfinished, further submissions are rejected 429.
	MaxSessions int
	// MaxMonitorEpochs caps monitor_epochs on a submission: a monitoring
	// session holds a campaign slot (and a private world) for its whole
	// epoch loop, so the daemon bounds how long that can be.
	MaxMonitorEpochs int
	// RunTimeout is the default per-campaign deadline; MaxTimeout caps
	// what a request's timeout_ms may raise it to.
	RunTimeout time.Duration
	MaxTimeout time.Duration
	// ProgressEvery thins the SSE progress stream to every Nth block
	// (plus each stage's first and last); 0 or less keeps every event.
	// It bounds SSE volume, not memory: a retained event costs about 10
	// bytes of the session's event log.
	ProgressEvery int
	// Now is the clock (tests inject a fake; main passes time.Now).
	Now func() time.Time
}

func (c serverConfig) withDefaults() serverConfig {
	if c.DefaultWorld.Blocks == 0 {
		c.DefaultWorld.Blocks = 2000
	}
	if c.DefaultWorld.Scale == 0 {
		c.DefaultWorld.Scale = 0.25
	}
	if c.MaxBlocks == 0 {
		c.MaxBlocks = 100000
	}
	if c.MaxWorlds == 0 {
		c.MaxWorlds = 4
	}
	if c.MaxResults == 0 {
		c.MaxResults = 256
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.MaxMonitorEpochs == 0 {
		c.MaxMonitorEpochs = 64
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = 10 * time.Minute
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.ProgressEvery < 0 {
		c.ProgressEvery = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// server is the hobbitd HTTP service: versioned campaign sessions over a
// pool of shared worlds, with a canonical-key result cache in front of
// the pipeline.
type server struct {
	cfg     serverConfig
	reg     *telemetry.Registry
	limiter *parallel.Limiter
	worlds  *worldPool
	cache   *resultCache
	mux     *http.ServeMux

	// ctx parents every asynchronous campaign; Close cancels it and
	// joins the runner goroutines through wg.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	nextID   int
	draining bool
}

func newServer(cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		cfg:      cfg,
		reg:      reg,
		limiter:  parallel.NewLimiter(cfg.MaxCampaigns),
		worlds:   newWorldPool(cfg.MaxWorlds, reg),
		cache:    newResultCache(cfg.MaxResults),
		mux:      http.NewServeMux(),
		ctx:      ctx,
		cancel:   cancel,
		sessions: make(map[string]*session),
	}
	s.routes()
	return s
}

func (s *server) routes() {
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/metrics", s.handleSessionMetrics)
	s.mux.Handle("GET /v1/metrics", s.reg)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "api": api.Version})
	})
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no route %s %s under /%s/", r.Method, r.URL.Path, api.Version))
	})
}

// ServeHTTP makes the server mountable (httptest, main's http.Server).
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the server: new submissions are refused, every
// asynchronous campaign's context is cancelled, and the runner
// goroutines are joined. Safe to call more than once.
func (s *server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

func (s *server) nowMS() int64 {
	return s.cfg.Now().UnixMilli()
}

// normalize applies the world-spec defaults and validates the whole
// request. It returns the normalized spec/options pair — the request's
// cache identity — or a client error.
func (s *server) normalize(req *api.SubmitRequestV1) error {
	w := &req.World
	if w.Blocks == 0 {
		w.Blocks = s.cfg.DefaultWorld.Blocks
	}
	if w.Scale == 0 {
		w.Scale = s.cfg.DefaultWorld.Scale
	}
	if w.Blocks < 0 || w.Blocks > s.cfg.MaxBlocks {
		return fmt.Errorf("world.blocks must be in [1, %d], got %d", s.cfg.MaxBlocks, w.Blocks)
	}
	if w.Scale < 0 || w.Scale > 1 {
		return fmt.Errorf("world.scale must be in (0, 1], got %v", w.Scale)
	}
	if w.Epoch < 0 {
		return fmt.Errorf("world.epoch must be >= 0, got %d", w.Epoch)
	}
	if w.FaultPlan != "" && !knownPlan(w.FaultPlan) {
		return fmt.Errorf("unknown world.fault_plan %q (have %v)", w.FaultPlan, faultplan.BuiltinNames())
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if req.MonitorEpochs < 0 {
		return fmt.Errorf("monitor_epochs must be >= 0, got %d", req.MonitorEpochs)
	}
	if req.MonitorEpochs > s.cfg.MaxMonitorEpochs {
		return fmt.Errorf("monitor_epochs must be <= %d, got %d", s.cfg.MaxMonitorEpochs, req.MonitorEpochs)
	}
	return req.Options.Validate()
}

func knownPlan(name string) bool {
	for _, n := range faultplan.BuiltinNames() {
		if n == name {
			return true
		}
	}
	return false
}

// timeout resolves the effective run deadline for a request.
func (s *server) timeout(req api.SubmitRequestV1) time.Duration {
	d := s.cfg.RunTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// maxSubmitBytes caps a submission body. A valid request is a few
// hundred bytes; the cap stops a client from making the decoder buffer
// an unbounded body.
const maxSubmitBytes = 1 << 20

// decodeSubmit decodes a submission body strictly: at most
// maxSubmitBytes, and no field v1 does not define.
func decodeSubmit(w http.ResponseWriter, body io.ReadCloser) (api.SubmitRequestV1, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req api.SubmitRequestV1
	err := dec.Decode(&req)
	return req, err
}

// handleSubmit is POST /v1/campaigns: validate, consult the result
// cache, and either finish the session instantly (hit), run it inline
// (wait: true, tied to the request context), or hand it to a runner
// goroutine (async, tied to the server context).
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(w, r.Body)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		api.WriteError(w, status, api.CodeBadRequest, "decoding request: "+err.Error())
		return
	}
	if err := s.normalize(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	key, err := cacheKey(req.World, req.Options, req.MonitorEpochs)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeBadRequest, err.Error())
		return
	}

	sess, err := s.admit(req, key)
	if err != nil {
		if errors.Is(err, errDraining) {
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeShuttingDown, err.Error())
		} else {
			api.WriteError(w, http.StatusTooManyRequests, api.CodeOverloaded, err.Error())
		}
		return
	}
	s.reg.Counter("serve.sessions_submitted").Inc()

	if cached, ok := s.cache.get(key); ok {
		// Cache hit: the session is born terminal, result bytes included,
		// and not a single probe is sent.
		s.reg.Counter("serve.cache_hits").Inc()
		sess.mu.Lock()
		sess.cacheHit = true
		sess.mu.Unlock()
		sess.finish(api.StateDone, cached, "", s.nowMS())
		writeJSON(w, http.StatusOK, sess.view())
		return
	}
	s.reg.Counter("serve.cache_misses").Inc()

	if req.Wait {
		// Synchronous: the campaign lives and dies with this request —
		// a client disconnect cancels r.Context() and aborts the run via
		// core.Pipeline's context awareness.
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req))
		sess.setCancel(cancel)
		defer cancel()
		s.runSession(ctx, sess)
		writeJSON(w, http.StatusOK, sess.view())
		return
	}

	ctx, cancel := context.WithTimeout(s.ctx, s.timeout(req))
	sess.setCancel(cancel)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.runSession(ctx, sess)
	}()
	writeJSON(w, http.StatusAccepted, sess.view())
}

var errDraining = errors.New("server is shutting down")

// admit registers a new session, evicting old finished sessions to stay
// within the retention bound; when every retained session is still live,
// the server is genuinely overloaded and the submission is refused.
func (s *server) admit(req api.SubmitRequestV1, key string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		evicted := false
		for i, id := range s.order {
			if _, _, _, terminal := s.sessions[id].terminal(); terminal {
				delete(s.sessions, id)
				s.order = append(s.order[:i:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, fmt.Errorf("all %d retained sessions are still running", len(s.sessions))
		}
	}
	s.nextID++
	id := fmt.Sprintf("c-%d", s.nextID)
	sess := newSession(id, req, key, s.nowMS())
	sess.events.every = s.cfg.ProgressEvery
	s.sessions[id] = sess
	s.order = append(s.order, id)
	return sess, nil
}

// runSession executes one campaign: wait for a limiter slot, acquire the
// world, run the context-aware pipeline, publish the result, and warm
// the cache. Every exit path finishes the session exactly once.
func (s *server) runSession(ctx context.Context, sess *session) {
	if err := s.limiter.Acquire(ctx); err != nil {
		s.finishErr(sess, err)
		return
	}
	defer s.limiter.Release()
	s.reg.Gauge("serve.campaigns_running").Set(int64(s.limiter.InUse()))
	defer func() { s.reg.Gauge("serve.campaigns_running").Set(int64(s.limiter.InUse() - 1)) }()
	sess.setRunning(s.nowMS())

	var world *netsim.World
	var err error
	if sess.req.MonitorEpochs > 0 {
		// A monitoring session advances the world's fault epoch as it
		// steps — mutable state no concurrent session may observe — so it
		// builds a private world instead of borrowing from the pool.
		world, err = sess.req.World.World()
		if err != nil {
			s.finishErr(sess, err)
			return
		}
		s.reg.Counter("serve.monitor_worlds_built").Inc()
	} else {
		var release func()
		world, release, err = s.worlds.acquire(ctx, sess.req.World)
		if err != nil {
			s.finishErr(sess, err)
			return
		}
		defer release()
	}

	c, err := sess.req.Run(ctx, world, core.Pipeline{
		Telemetry: sess.reg,
		Progress:  telemetry.SinkFunc(sess.events.append),
	})
	if err != nil {
		s.finishErr(sess, err)
		return
	}
	if sess.req.MonitorEpochs > 0 {
		s.reg.Counter("serve.monitor_epochs").Add(int64(len(c.Reports)))
	}
	var buf bytes.Buffer
	if err := api.EncodeRunSummaryV1(&buf, c.Summary); err != nil {
		s.finishErr(sess, err)
		return
	}
	s.cache.put(sess.cacheKey, buf.Bytes())
	s.reg.Counter("serve.campaigns_completed").Inc()
	s.reg.Counter("serve.probes_total").Add(c.Summary.Probes)
	s.reg.Counter("serve.pings_total").Add(c.Summary.Pings)
	sess.finish(api.StateDone, buf.Bytes(), "", s.nowMS())
}

// finishErr maps a run error to its terminal state: context errors mean
// the client (or a deadline) cancelled; anything else failed.
func (s *server) finishErr(sess *session, err error) {
	state := api.StateFailed
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		state = api.StateCancelled
		s.reg.Counter("serve.campaigns_cancelled").Inc()
	} else {
		s.reg.Counter("serve.campaigns_failed").Inc()
	}
	sess.finish(state, nil, err.Error(), s.nowMS())
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no campaign session "+id)
	}
	return sess
}

// handleList is GET /v1/campaigns: every retained session, oldest first.
func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := api.SessionListV1{Sessions: make([]api.SessionV1, 0, len(s.order))}
	sessions := make([]*session, 0, len(s.order))
	for _, id := range s.order {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		list.Sessions = append(list.Sessions, sess.view())
	}
	writeJSON(w, http.StatusOK, list)
}

// handleStatus is GET /v1/campaigns/{id}.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.view())
	}
}

// handleCancel is DELETE /v1/campaigns/{id}: cancel the session's
// context (a no-op once terminal) and report the current view.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	sess.abort()
	writeJSON(w, http.StatusOK, sess.view())
}

// handleResult is GET /v1/campaigns/{id}/result: the RunSummaryV1 bytes
// of a done session, replayed verbatim from the session (and therefore,
// on a cache hit, verbatim from the first run). ?wait=1 blocks until the
// session terminates or the client goes away.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-sess.done:
		case <-r.Context().Done():
			return
		}
	}
	state, result, errMsg, terminal := sess.terminal()
	switch {
	case !terminal:
		api.WriteError(w, http.StatusConflict, api.CodeNotDone,
			fmt.Sprintf("session %s is %s; poll again or pass ?wait=1", sess.id, state))
	case state != api.StateDone:
		api.WriteError(w, http.StatusConflict, api.CodeRunFailed,
			fmt.Sprintf("session %s %s: %s", sess.id, state, errMsg))
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(result)
	}
}

// handleEvents is GET /v1/campaigns/{id}/events: the live progress
// stream as Server-Sent Events. The full retained history replays first
// (subscribing late loses nothing), then events stream as the campaign
// measures; the stream closes with one final "done" event carrying the
// terminal session resource. A disconnected client just stops reading —
// its context ends the loop.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		api.WriteError(w, http.StatusInternalServerError, api.CodeBadRequest, "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	events := sess.events.replay()
	for {
		closed, wake := events.fetch()
		sent := false
		for data := events.next(); data != nil; data = events.next() {
			if err := writeSSEData(w, "progress", data); err != nil {
				return
			}
			sent = true
		}
		if sent {
			flusher.Flush()
		}
		if closed {
			_ = writeSSE(w, "done", sess.view())
			flusher.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one Server-Sent Event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return writeSSEData(w, event, data)
}

// writeSSEData writes one Server-Sent Event whose JSON data is already
// encoded.
func writeSSEData(w http.ResponseWriter, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// handleSessionMetrics is GET /v1/campaigns/{id}/metrics: the session's
// own telemetry registry (per-stage spans, probe counters, histograms),
// live while the campaign runs.
func (s *server) handleSessionMetrics(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		sess.reg.ServeHTTP(w, r)
	}
}

// writeJSON writes an indented JSON body (the same rendering every other
// v1 payload uses).
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}
