package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"testing"
)

// FuzzSubmitRequest drives hobbitd's hostile-input boundary the way
// handleSubmit does: the strict decode, normalize, then the result-cache
// key. No body may panic any step, normalize must be idempotent on what
// it accepts, and the key must be stable. The seeds in
// testdata/fuzz/FuzzSubmitRequest cover the world and option bounds,
// including mda.max_ttl past the 8-bit TTL field and mda.first_ttl,
// which the key folds.
func FuzzSubmitRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	s := newServer(serverConfig{})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if err != nil || s.normalize(&req) != nil {
			return
		}
		key, err := cacheKey(req.World, req.Options, req.MonitorEpochs)
		if err != nil {
			t.Fatalf("cacheKey(%+v): %v", req, err)
		}
		again := req
		if err := s.normalize(&again); err != nil {
			t.Fatalf("normalize rejected its own output %+v: %v", req, err)
		}
		if again != req {
			t.Fatalf("normalize not idempotent:\n%+v\n%+v", req, again)
		}
		if k, _ := cacheKey(again.World, again.Options, again.MonitorEpochs); k != key {
			t.Fatalf("unstable cache key:\n%s\n%s", key, k)
		}
	})
}
