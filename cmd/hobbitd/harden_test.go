package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hobbitscan/hobbit/internal/api"
)

// TestSubmitBodyLimit pins the submit body cap: an oversized body is
// refused 413 with the usual bad_request code, before any decoding
// buffers it whole, while a valid body padded to just under the cap is
// still accepted.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	pad := strings.Repeat("a", maxSubmitBytes)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"world": {"seed": 1}, "x": "`+pad+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %s, want 413", resp.Status)
	}
	if code := errorCode(t, resp); code != api.CodeBadRequest {
		t.Errorf("oversized body: code %q, want %q", code, api.CodeBadRequest)
	}

	body, err := io.ReadAll(submitBody(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	padded := append(body, bytes.Repeat([]byte(" "), maxSubmitBytes-len(body))...)
	postCampaign(t, ts, bytes.NewReader(padded))
}

// TestServerTimeouts checks the daemon's http.Server: header and idle
// timeouts set, no write or whole-request read timeout (SSE and
// wait:true responses are long-lived), and a client that stalls while
// sending headers gets its connection closed.
func TestServerTimeouts(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	hs := newHTTPServer(srv)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v: would cut off streaming responses", hs.WriteTimeout, hs.ReadTimeout)
	}

	hs.ReadHeaderTimeout = 100 * time.Millisecond // keep the test quick
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = hs.Close()
		<-done
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request and never finish its headers.
	if _, err := io.WriteString(conn, "POST /v1/campaigns HTTP/1.1\r\nHost: hobbitd\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept a connection with stalled headers open")
		}
		// A reset also means the server dropped the connection.
	}
}
