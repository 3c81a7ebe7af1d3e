package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
)

// testWorld is small enough that a full campaign finishes in well under a
// second, so the suite can run dozens of them.
const (
	testBlocks = 120
	testScale  = 0.02
)

func newTestServer(t *testing.T, mut func(*serverConfig)) (*server, *httptest.Server) {
	t.Helper()
	cfg := serverConfig{
		DefaultWorld: api.WorldSpecV1{Blocks: testBlocks, Scale: testScale},
		Now:          time.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submitBody(seed uint64, mut func(*api.SubmitRequestV1)) *bytes.Reader {
	req := api.SubmitRequestV1{World: api.WorldSpecV1{Seed: seed}}
	if mut != nil {
		mut(&req)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return bytes.NewReader(b)
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func postCampaign(t *testing.T, ts *httptest.Server, body io.Reader) (*http.Response, api.SessionV1) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	return resp, decodeJSON[api.SessionV1](t, resp.Body)
}

// waitResult blocks on GET .../result?wait=1 and returns the summary
// bytes once the session is done.
func waitResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s: %s", id, resp.Status, b)
	}
	return b
}

func counters(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap := decodeJSON[struct {
		Counters map[string]int64 `json:"counters"`
	}](t, resp.Body)
	return snap.Counters
}

func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	return decodeJSON[api.ErrorV1](t, resp.Body).Error.Code
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := decodeJSON[map[string]string](t, resp.Body)
	if resp.StatusCode != http.StatusOK || body["api"] != api.Version {
		t.Fatalf("healthz = %s %v", resp.Status, body)
	}
}

// TestSubmitValidation pins the 400 paths: malformed JSON, unknown
// fields (the versioning contract rejects what v1 does not define),
// out-of-range worlds, unknown fault plans, bad options.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *serverConfig) { c.MaxBlocks = 500 })
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"world": {"blocks": 10}, "shards": 4}`},
		{"unknown world field", `{"world": {"blocks": 10, "universe": 9}}`},
		{"blocks over ceiling", `{"world": {"blocks": 100000}}`},
		{"negative blocks", `{"world": {"blocks": -5}}`},
		{"bad scale", `{"world": {"scale": 40}}`},
		{"negative epoch", `{"world": {"epoch": -1}}`},
		{"unknown fault plan", `{"world": {"fault_plan": "meteor-strike"}}`},
		{"negative timeout", `{"timeout_ms": -4}`},
		{"negative workers", `{"options": {"workers": -1}}`},
		{"bad confidence", `{"options": {"mda": {"confidence": 7}}}`},
		{"max_ttl past the TTL field", `{"options": {"mda": {"max_ttl": 256}}}`},
		{"max_ttl int32 max", `{"options": {"mda": {"max_ttl": 2147483647}}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", tc.name, resp.Status)
		}
		if code := errorCode(t, resp); code != api.CodeBadRequest {
			t.Errorf("%s: code %q, want %q", tc.name, code, api.CodeBadRequest)
		}
	}
}

func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{"/v1/campaigns/c-404", "/v1/campaigns/c-404/result", "/v2/campaigns", "/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %s, want 404", path, resp.Status)
		}
		if code := errorCode(t, resp); code != api.CodeNotFound {
			t.Errorf("%s: code %q, want %q", path, code, api.CodeNotFound)
		}
	}
}

// TestCampaignLifecycle drives one async campaign through every
// endpoint: submit (202, queued), status, blocking result, list, session
// metrics, server metrics.
func TestCampaignLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, sess := postCampaign(t, ts, submitBody(7, nil))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %s, want 202", resp.Status)
	}
	if sess.ID == "" || sess.CacheHit {
		t.Fatalf("bad submit session: %+v", sess)
	}
	if sess.World.Blocks != testBlocks || sess.World.Scale != testScale {
		t.Errorf("world defaults not applied: %+v", sess.World)
	}

	// The result endpoint before completion either waits (wait=1, below)
	// or conflicts; the status endpoint always answers.
	result := waitResult(t, ts, sess.ID)
	var summary api.RunSummaryV1
	if err := json.Unmarshal(result, &summary); err != nil {
		t.Fatalf("result is not a RunSummaryV1: %v", err)
	}
	if summary.Universe != testBlocks || summary.Probes == 0 {
		t.Errorf("implausible summary: universe=%d probes=%d", summary.Universe, summary.Probes)
	}

	st, err := http.Get(ts.URL + "/v1/campaigns/" + sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	view := decodeJSON[api.SessionV1](t, st.Body)
	st.Body.Close()
	if view.State != api.StateDone || view.FinishedUnixMS == 0 {
		t.Errorf("post-run view = %+v", view)
	}

	lr, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[api.SessionListV1](t, lr.Body)
	lr.Body.Close()
	if len(list.Sessions) != 1 || list.Sessions[0].ID != sess.ID {
		t.Errorf("list = %+v", list)
	}

	mr, err := http.Get(ts.URL + "/v1/campaigns/" + sess.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sessSnap := decodeJSON[struct {
		Counters map[string]int64 `json:"counters"`
	}](t, mr.Body)
	mr.Body.Close()
	if sessSnap.Counters["campaign.blocks_measured"] == 0 {
		t.Errorf("session metrics missing campaign counters: %v", sessSnap.Counters)
	}

	c := counters(t, ts)
	for _, want := range []string{"serve.sessions_submitted", "serve.cache_misses", "serve.campaigns_completed", "serve.worlds_built", "serve.probes_total"} {
		if c[want] == 0 {
			t.Errorf("server counter %s = 0 after a completed run (%v)", want, c)
		}
	}
}

// TestSyncSubmit pins wait=true: one request, terminal session in the
// response, result immediately fetchable.
func TestSyncSubmit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, sess := postCampaign(t, ts, submitBody(7, func(r *api.SubmitRequestV1) { r.Wait = true }))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync submit status = %s, want 200", resp.Status)
	}
	if sess.State != api.StateDone {
		t.Fatalf("sync submit returned non-terminal session: %+v", sess)
	}
	if b := waitResult(t, ts, sess.ID); len(b) == 0 {
		t.Error("empty result after sync run")
	}
}

// TestCacheHitDeterminism is the tentpole acceptance check: an identical
// resubmission — even spelled with different worker counts — is served
// from the cache with byte-identical result bytes and zero new probes.
func TestCacheHitDeterminism(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, first := postCampaign(t, ts, submitBody(7, nil))
	cold := waitResult(t, ts, first.ID)
	before := counters(t, ts)
	if before["serve.cache_hits"] != 0 || before["serve.cache_misses"] != 1 {
		t.Fatalf("cold-run counters: %v", before)
	}

	// Same campaign, different spelling: explicit worker counts differ
	// from the implicit defaults, but canonicalization (worker counts do
	// not change output — DESIGN.md §4d) lands on the same cache key.
	resp, hit := postCampaign(t, ts, submitBody(7, func(r *api.SubmitRequestV1) {
		r.Options = core.Options{Workers: 3, CensusWorkers: 2}
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit status = %s, want 200", resp.Status)
	}
	if !hit.CacheHit || hit.State != api.StateDone {
		t.Fatalf("resubmission missed the cache: %+v", hit)
	}
	warm := waitResult(t, ts, hit.ID)
	if !bytes.Equal(cold, warm) {
		t.Error("cache hit returned different bytes than the cold run")
	}

	// mda.first_ttl shares the key too: FindLastHops replaces it with the
	// echo-TTL estimate before every MDA run.
	_, ttl := postCampaign(t, ts, submitBody(7, func(r *api.SubmitRequestV1) {
		r.Options.MDA.FirstTTL = 9
	}))
	if !ttl.CacheHit {
		t.Errorf("a first_ttl-only resubmission missed the cache: %+v", ttl)
	}

	// So do the v1 wire's adaptive fields, which MDA ignores.
	_, adaptive := postCampaign(t, ts, submitBody(7, func(r *api.SubmitRequestV1) {
		r.Options.MDA.Adaptive, r.Options.MDA.AdaptiveBudget = true, 9
	}))
	if !adaptive.CacheHit {
		t.Errorf("an adaptive-only resubmission missed the cache: %+v", adaptive)
	}

	after := counters(t, ts)
	if after["serve.cache_hits"] != 3 {
		t.Errorf("cache_hits = %d, want 3", after["serve.cache_hits"])
	}
	if after["serve.probes_total"] != before["serve.probes_total"] ||
		after["serve.pings_total"] != before["serve.pings_total"] {
		t.Errorf("cache hit sent probes: before %v after %v", before, after)
	}

	// A genuinely different campaign misses.
	_, miss := postCampaign(t, ts, submitBody(8, nil))
	if miss.CacheHit {
		t.Error("different seed hit the cache")
	}
	waitResult(t, ts, miss.ID)
	if c := counters(t, ts); c["serve.cache_misses"] != 2 {
		t.Errorf("cache_misses = %d, want 2", c["serve.cache_misses"])
	}
}

// TestSSEEvents subscribes to the progress stream of a campaign and
// reads it to the terminal "done" event: at least one progress event
// with monotonic done counts, then the session resource in done state.
func TestSSEEvents(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, sess := postCampaign(t, ts, submitBody(7, nil))

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sess.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var progress []api.ProgressEventV1
	var final *api.SessionV1
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var ev api.ProgressEventV1
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress payload %q: %v", data, err)
				}
				progress = append(progress, ev)
			case "done":
				var v api.SessionV1
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
				final = &v
			}
		}
		if final != nil {
			break
		}
	}
	if final == nil {
		t.Fatalf("stream ended without a done event (scanner err %v)", sc.Err())
	}
	if final.State != api.StateDone {
		t.Errorf("done event state = %s", final.State)
	}
	if len(progress) == 0 {
		t.Fatal("no progress events before done")
	}
	for i := 1; i < len(progress); i++ {
		if progress[i].Stage == progress[i-1].Stage && progress[i].Done < progress[i-1].Done {
			t.Errorf("done counts regressed: %+v -> %+v", progress[i-1], progress[i])
		}
	}
	// Each event's class tallies are those of its own moment, although
	// the campaign mutates one class map between emissions.
	for _, ev := range progress {
		n := 0
		for _, c := range ev.Classes {
			n += c
		}
		if n != ev.Done {
			t.Errorf("event %+v: class tallies sum to %d, not done", ev, n)
		}
	}
	// The census streams, so total is 0 until the campaign's feed closed
	// and exact after that: only the last event may claim done == total.
	last := progress[len(progress)-1]
	if last.Total == 0 || last.Done != last.Total {
		t.Errorf("last progress event %+v does not complete its total", last)
	}
	for _, ev := range progress[:len(progress)-1] {
		if ev.Total != 0 && ev.Total != last.Total {
			t.Errorf("event %+v: total is neither 0 nor the final %d", ev, last.Total)
		}
		if ev.Done == ev.Total {
			t.Errorf("event %+v claims done == total before the last event", ev)
		}
	}
}

// sseReader reads one SSE stream event by event.
type sseReader struct {
	sc *bufio.Scanner
}

func subscribe(t *testing.T, ts *httptest.Server, id string) *sseReader {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: %s", id, resp.Status)
	}
	return &sseReader{sc: bufio.NewScanner(resp.Body)}
}

// next returns the next event's name and data.
func (r *sseReader) next(t *testing.T) (event, data string) {
	t.Helper()
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
	t.Fatalf("stream ended before its done event (scanner err %v)", r.sc.Err())
	return "", ""
}

// progressUntilDone returns the data of every progress event up to the
// stream's closing done event.
func (r *sseReader) progressUntilDone(t *testing.T) []string {
	t.Helper()
	var progress []string
	for {
		event, data := r.next(t)
		if event == "done" {
			return progress
		}
		progress = append(progress, data)
	}
}

// TestSSEReplayJoinPoints subscribes to one real campaign three times —
// at submit, mid-campaign and after done — and checks that all three
// streams carry the same progress bytes, each exactly json.Marshal's
// rendering of its event.
func TestSSEReplayJoinPoints(t *testing.T) {
	srv, ts := newTestServer(t, func(c *serverConfig) { c.MaxCampaigns = 1 })
	var (
		id               string
		first            string
		atSubmit, midway *sseReader
	)
	// A campaign that finishes between its first event and the
	// mid-campaign join is retried with a fresh one twice the size.
	for blocks := 1000; midway == nil; blocks *= 2 {
		if blocks > 16000 {
			t.Fatal("every campaign finished before a subscriber could join mid-campaign")
		}
		// The held slot keeps the session queued until the first
		// subscriber is connected, so that one sees every event live.
		if err := srv.limiter.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, view := postCampaign(t, ts, submitBody(7, func(r *api.SubmitRequestV1) { r.World.Blocks = blocks }))
		srv.mu.Lock()
		sess := srv.sessions[view.ID]
		srv.mu.Unlock()
		atSubmit = subscribe(t, ts, view.ID)
		srv.limiter.Release()

		event, data := atSubmit.next(t)
		if event != "progress" {
			t.Fatalf("first event %q, want progress", event)
		}
		// Holding the log's lock stalls the campaign at its next event; a
		// log whose newest event is not the final Done == Total one is
		// still mid-campaign. The subscription is live once its headers
		// arrive; the handler then waits on the lock for its first fetch.
		sess.events.mu.Lock()
		last := sess.events.last
		if !sess.events.closed && (last.total == 0 || last.done != last.total) {
			midway = subscribe(t, ts, view.ID)
		}
		sess.events.mu.Unlock()
		if midway == nil {
			atSubmit.progressUntilDone(t)
		}
		id, first = view.ID, data
	}

	live := append([]string{first}, atSubmit.progressUntilDone(t)...)
	joined := midway.progressUntilDone(t)
	waitResult(t, ts, id)
	late := subscribe(t, ts, id).progressUntilDone(t)

	if len(live) < 2 {
		t.Fatalf("only %d progress events", len(live))
	}
	for i, data := range live {
		var ev api.ProgressEventV1
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad progress payload %q: %v", data, err)
		}
		if b, _ := json.Marshal(ev); string(b) != data {
			t.Fatalf("progress %d is not json.Marshal's rendering of its event:\n got %s\nwant %s", i, data, b)
		}
	}
	for _, sub := range []struct {
		joined string
		got    []string
	}{{"mid-campaign", joined}, {"after done", late}} {
		if !slices.Equal(sub.got, live) {
			t.Errorf("subscriber joining %s got %d progress events differing from the %d streamed live", sub.joined, len(sub.got), len(live))
		}
	}
}

// TestClientDisconnectAborts pins the wait-mode contract: the campaign
// runs on the request context, so a client that goes away cancels the
// run. The server's single campaign slot is held by the test, keeping
// the session deterministically queued until after the disconnect.
func TestClientDisconnectAborts(t *testing.T) {
	srv, ts := newTestServer(t, func(c *serverConfig) { c.MaxCampaigns = 1 })
	if err := srv.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.limiter.Release()

	body := submitBody(7, func(r *api.SubmitRequestV1) { r.Wait = true })
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/campaigns", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded despite disconnect: %s", resp.Status)
		}
		errc <- err
	}()

	// Wait until the session exists (the handler is parked on the
	// limiter), then hang up.
	var id string
	for i := 0; i < 200 && id == ""; i++ {
		resp, err := http.Get(ts.URL + "/v1/campaigns")
		if err != nil {
			t.Fatal(err)
		}
		list := decodeJSON[api.SessionListV1](t, resp.Body)
		resp.Body.Close()
		if len(list.Sessions) > 0 {
			id = list.Sessions[0].ID
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if id == "" {
		t.Fatal("session never appeared")
	}
	cancel()
	wg.Wait()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context cancellation", err)
	}

	// The session reaches cancelled without ever probing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		view := decodeJSON[api.SessionV1](t, resp.Body)
		resp.Body.Close()
		if view.State == api.StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %s after disconnect", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := counters(t, ts); c["serve.probes_total"] != 0 || c["serve.campaigns_cancelled"] != 1 {
		t.Errorf("post-abort counters: %v", c)
	}

	// The aborted run must not have poisoned the cache: the same
	// campaign resubmitted runs cold and completes.
	rr, redo := postCampaign(t, ts, submitBody(7, nil))
	rr.Body.Close()
	if redo.CacheHit {
		t.Error("cancelled run left a cache entry")
	}
}

// TestCancelEndpoint pins DELETE: a queued session (slot held by the
// test) cancels without running.
func TestCancelEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, func(c *serverConfig) { c.MaxCampaigns = 1 })
	if err := srv.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.limiter.Release()

	_, sess := postCampaign(t, ts, submitBody(7, nil))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+sess.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	rr, err := http.Get(ts.URL + "/v1/campaigns/" + sess.ID + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled session: %s, want 409", rr.Status)
	}
	if code := errorCode(t, rr); code != api.CodeRunFailed {
		t.Errorf("code = %q, want %q", code, api.CodeRunFailed)
	}
}

// TestConcurrentSessionsShareWorld races N distinct campaigns over one
// world spec: the pool must build the world exactly once, and every
// session must complete. Run under -race, this is the daemon's central
// concurrency test.
func TestConcurrentSessionsShareWorld(t *testing.T) {
	const n = 6
	_, ts := newTestServer(t, nil)

	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			// Distinct min_active per submission: same world key, but a
			// different cache key, so every session truly runs.
			_, sess := postCampaign(t, ts, submitBody(7, func(r *api.SubmitRequestV1) {
				r.Options.MinActive = 2 + i%3
				r.Options.ValidatePairs = 100 * (i + 1)
			}))
			ids[i] = sess.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if len(waitResult(t, ts, id)) == 0 {
			t.Errorf("session %s returned empty result", id)
		}
	}
	c := counters(t, ts)
	if c["serve.worlds_built"] != 1 {
		t.Errorf("worlds_built = %d, want 1 (reused %d)", c["serve.worlds_built"], c["serve.worlds_reused"])
	}
	if c["serve.campaigns_completed"] != n {
		t.Errorf("campaigns_completed = %d, want %d", c["serve.campaigns_completed"], n)
	}
}

// TestSessionRetentionOverload pins the 429 path: when every retained
// session is still live, submissions are refused; once sessions finish,
// eviction makes room again.
func TestSessionRetentionOverload(t *testing.T) {
	srv, ts := newTestServer(t, func(c *serverConfig) {
		c.MaxSessions = 2
		c.MaxCampaigns = 1
	})
	if err := srv.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	r1, _ := postCampaign(t, ts, submitBody(1, nil))
	r2, _ := postCampaign(t, ts, submitBody(2, nil))
	r1.Body.Close()
	r2.Body.Close()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", submitBody(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %s, want 429", resp.Status)
	}
	if code := errorCode(t, resp); code != api.CodeOverloaded {
		t.Errorf("code = %q, want %q", code, api.CodeOverloaded)
	}

	// Release the slot; both queued campaigns finish, and the next
	// submission evicts one of them.
	srv.limiter.Release()
	lr, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeJSON[api.SessionListV1](t, lr.Body)
	lr.Body.Close()
	for _, s := range list.Sessions {
		waitResult(t, ts, s.ID)
	}
	r4, _ := postCampaign(t, ts, submitBody(1, nil))
	r4.Body.Close()
}

// TestShutdownRefusesSubmissions pins the drain contract.
func TestShutdownRefusesSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	srv.Close()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", submitBody(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %s, want 503", resp.Status)
	}
	if code := errorCode(t, resp); code != api.CodeShuttingDown {
		t.Errorf("code = %q, want %q", code, api.CodeShuttingDown)
	}
}

// TestCloseJoinsSessions pins the shutdown contract of asynchronous
// sessions: runners live on the server context, so Close cancels the
// running and the queued ones alike and joins them through the server's
// WaitGroup, and an open SSE stream ends with its session. Once the
// server and the client let go, no goroutine started since the server
// was built survives.
func TestCloseJoinsSessions(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, ts := newTestServer(t, func(c *serverConfig) { c.MaxCampaigns = 1 })
	client := &http.Client{Transport: &http.Transport{}}

	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		resp, err := client.Post(ts.URL+"/v1/campaigns", "application/json", submitBody(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: %s, want 202", seed, resp.Status)
		}
		ids = append(ids, decodeJSON[api.SessionV1](t, resp.Body).ID)
		resp.Body.Close()
	}
	stream, err := client.Get(ts.URL + "/v1/campaigns/" + ids[len(ids)-1] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(stream.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading the event stream: %v", err)
	}

	srv.Close()
	srv.mu.Lock()
	for _, id := range ids {
		if state, _, _, ok := srv.sessions[id].terminal(); !ok {
			t.Errorf("session %s is %s after Close, want a terminal state", id, state)
		}
	}
	srv.mu.Unlock()
	ts.Close()
	stream.Body.Close()
	client.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Close, %d before the server was built", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorSession submits a monitoring campaign and checks the
// daemon's side of the contract: the summary grows a monitor section
// with one entry per epoch (bootstrap included), the session keys the
// result cache separately from its non-monitoring twin, the monitor's
// world is private (never the pool's), and the ceiling rejects
// oversized epoch counts.
func TestMonitorSession(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *serverConfig) { cfg.MaxMonitorEpochs = 4 })

	mkReq := func(epochs int) func(*api.SubmitRequestV1) {
		return func(r *api.SubmitRequestV1) {
			r.World.FaultPlan = "flap"
			r.Wait = true
			r.MonitorEpochs = epochs
		}
	}

	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", submitBody(11, mkReq(5)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("monitor_epochs above ceiling: got %s, want 400", resp.Status)
	}
	if code := errorCode(t, resp); code != api.CodeBadRequest {
		t.Fatalf("error code %q, want %q", code, api.CodeBadRequest)
	}

	_, sess := postCampaign(t, ts, submitBody(11, mkReq(2)))
	if sess.State != api.StateDone {
		t.Fatalf("monitor session state %q, want done", sess.State)
	}
	result := waitResult(t, ts, sess.ID)
	var sum api.RunSummaryV1
	if err := json.Unmarshal(result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Monitor == nil || len(sum.Monitor.Epochs) != 3 {
		t.Fatalf("monitor section: %+v, want 3 epochs", sum.Monitor)
	}
	boot := sum.Monitor.Epochs[0]
	if !boot.All || boot.Reprobed != sum.Eligible {
		t.Fatalf("bootstrap epoch: %+v, want All with Reprobed == %d", boot, sum.Eligible)
	}
	for _, e := range sum.Monitor.Epochs[1:] {
		if e.All || e.Reprobed >= sum.Eligible {
			t.Errorf("epoch %d reprobed %d of %d eligible — not incremental", e.Epoch, e.Reprobed, sum.Eligible)
		}
	}

	// The plain campaign on the same world spec must miss the monitor's
	// cache entry and carry no monitor section.
	_, plain := postCampaign(t, ts, submitBody(11, func(r *api.SubmitRequestV1) {
		r.World.FaultPlan = "flap"
		r.Wait = true
	}))
	var plainSum api.RunSummaryV1
	if err := json.Unmarshal(waitResult(t, ts, plain.ID), &plainSum); err != nil {
		t.Fatal(err)
	}
	if plainSum.Monitor != nil {
		t.Error("non-monitoring campaign grew a monitor section")
	}

	// Resubmitting the monitor request is a cache hit with identical bytes.
	_, again := postCampaign(t, ts, submitBody(11, mkReq(2)))
	if !again.CacheHit {
		t.Error("identical monitor submission missed the result cache")
	}
	if got := waitResult(t, ts, again.ID); !bytes.Equal(got, result) {
		t.Error("cached monitor result bytes differ from the first run")
	}

	c := counters(t, ts)
	if c["serve.monitor_worlds_built"] == 0 {
		t.Error("monitor session did not build a private world")
	}
	if c["serve.monitor_epochs"] != 3 {
		t.Errorf("serve.monitor_epochs = %d, want 3", c["serve.monitor_epochs"])
	}
}
