package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http/httptest"
	"testing"

	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/telemetry"
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

// fuzzNames are the stage and class names FuzzEventLog draws from: real
// ones, and ones JSON must escape (HTML characters, a quote, invalid
// UTF-8) or that sort unusually (empty, non-ASCII).
var fuzzNames = []string{"measure", monitor.StageReprobe, "homogeneous", "hierarchical", "", "<&>", "a\"b", "\xff", "é"}

// FuzzEventLog feeds an eventLog arbitrary event sequences: the first
// input byte sets thinning, each further byte is an op — switch the
// stage, move done, total, pings or probes by a varint delta (negative
// and huge included), set or drop a class, start a fresh class map, or
// append the event. Every retained event must replay as exactly
// json.Marshal(api.Progress(ev)) of the event when it was appended, both
// to a cursor that fetches between appends and to one that joins after
// close. The seeds in testdata/fuzz/FuzzEventLog cover a monitoring
// session's shape, thinning, extreme deltas and the odd names.
func FuzzEventLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		l := newEventLog()
		l.every = int(in[0])
		live := l.replay()
		var want, got [][]byte
		ev := telemetry.ProgressEvent{Classes: map[string]int{}}
		for ops := in[1:]; len(ops) > 0; {
			op := ops[0]
			ops = ops[1:]
			name := fuzzNames[int(op>>4)%len(fuzzNames)]
			kind := op & 15
			var arg int64
			if kind >= 1 && kind <= 5 {
				v, n := binary.Varint(ops)
				if n <= 0 {
					return
				}
				arg, ops = v, ops[n:]
			}
			switch kind {
			case 0:
				ev.Stage = name
			case 1:
				ev.Done += int(arg)
			case 2:
				ev.Total += int(arg)
			case 3:
				ev.Pings += arg
			case 4:
				ev.Probes += arg
			case 5:
				if ev.Classes == nil {
					ev.Classes = map[string]int{}
				}
				ev.Classes[name] = int(arg)
			case 6:
				delete(ev.Classes, name)
			case 7:
				// A new campaign starts over with its own (possibly nil) map.
				if op>>4&1 == 0 {
					ev.Classes = map[string]int{}
				} else {
					ev.Classes = nil
				}
			default:
				if l.keeps(ev) {
					want = append(want, progressJSON(t, ev))
				}
				l.append(ev)
				if op&1 != 0 {
					live.fetch()
					got = drainReplay(live, got)
				}
			}
		}
		l.close()
		live.fetch()
		sameMessages(t, "live cursor", drainReplay(live, got), want)
		sameMessages(t, "late cursor", replayAll(l), want)
	})
}
