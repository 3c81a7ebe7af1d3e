package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/monitor"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// stageRun is one campaign run inside a session's event stream.
type stageRun struct {
	stage  string
	blocks int
}

// monitorShape is a stream shaped like a monitoring session's: a
// bootstrap that measures every block, then an epoch that reprobes a few.
var monitorShape = []stageRun{{"measure", 40}, {monitor.StageReprobe, 9}}

// emitStream emits runs the way hobbit.Campaign does: each run counts
// Done from 1 over its own class map, which it mutates after every
// emission; Total stays 0 until the run's last event; pings and probes
// accumulate over the whole session.
func emitStream(runs []stageRun, emit func(telemetry.ProgressEvent)) {
	classNames := []string{"homogeneous", "hierarchical", "heterogeneous", "too-few-active"}
	var pings, probes int64
	for _, run := range runs {
		classes := make(map[string]int)
		for done := 1; done <= run.blocks; done++ {
			classes[classNames[done%5%len(classNames)]]++
			pings += int64(4 + done%3)
			probes += int64(90 + done*37%200)
			ev := telemetry.ProgressEvent{Stage: run.stage, Done: done, Classes: classes, Pings: pings, Probes: probes}
			if done == run.blocks {
				ev.Total = run.blocks
			}
			emit(ev)
		}
	}
}

// progressJSON is the SSE progress message the v1 API defines for ev.
func progressJSON(t testing.TB, ev telemetry.ProgressEvent) []byte {
	t.Helper()
	b, err := json.Marshal(api.Progress(ev))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drainReplay appends every message r has fetched but not decoded.
func drainReplay(r *replay, into [][]byte) [][]byte {
	for m := r.next(); m != nil; m = r.next() {
		into = append(into, m)
	}
	return into
}

// replayAll replays l's whole history through a fresh cursor.
func replayAll(l *eventLog) [][]byte {
	r := l.replay()
	r.fetch()
	return drainReplay(r, nil)
}

func sameMessages(t *testing.T, who string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d messages, want %d", who, len(got), len(want))
		return
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: message %d\n got %s\nwant %s", who, i, got[i], want[i])
			return
		}
	}
}

// TestEventLogProgressEvery pins -progress-every thinning through
// serverConfig: a session keeps each stage's first event, every Nth, and
// its last (Done == Total), and each kept event replays byte-identical
// to json.Marshal of the event as it was appended.
func TestEventLogProgressEvery(t *testing.T) {
	for _, tc := range []struct {
		every int
		// kept lists the retained Done values per stage; nil keeps all.
		kept map[string][]int
	}{
		{every: 0},
		{every: 1},
		{every: 7, kept: map[string][]int{
			"measure":            {1, 7, 14, 21, 28, 35, 40},
			monitor.StageReprobe: {1, 7, 9},
		}},
	} {
		t.Run(fmt.Sprintf("every=%d", tc.every), func(t *testing.T) {
			srv := newServer(serverConfig{ProgressEvery: tc.every})
			defer srv.Close()
			sess, err := srv.admit(api.SubmitRequestV1{}, "key")
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			emitStream(monitorShape, func(ev telemetry.ProgressEvent) {
				if tc.kept == nil || slices.Contains(tc.kept[ev.Stage], ev.Done) {
					want = append(want, progressJSON(t, ev))
				}
				sess.events.append(ev)
			})
			sameMessages(t, "replay", replayAll(sess.events), want)
		})
	}
}

// TestEventLogConcurrentReplay appends on one goroutine while two
// cursors read, one from the start and one joining halfway: both must
// see every message, in order, byte-identical to json.Marshal of its
// event. Run it under -race -count=10.
func TestEventLogConcurrentReplay(t *testing.T) {
	runs := []stageRun{{"measure", 400}, {monitor.StageReprobe, 90}}
	var want [][]byte
	emitStream(runs, func(ev telemetry.ProgressEvent) { want = append(want, progressJSON(t, ev)) })

	l := newEventLog()
	halfway := make(chan struct{})
	got := make([][][]byte, 2)
	var wg sync.WaitGroup
	read := func(i int) {
		defer wg.Done()
		r := l.replay()
		for {
			closed, wake := r.fetch()
			got[i] = drainReplay(r, got[i])
			if closed {
				return
			}
			<-wake
		}
	}
	wg.Add(2)
	go read(0)
	go func() {
		<-halfway
		read(1)
	}()
	n := 0
	emitStream(runs, func(ev telemetry.ProgressEvent) {
		l.append(ev)
		if n++; n == len(want)/2 {
			close(halfway)
		}
	})
	l.close()
	wg.Wait()
	sameMessages(t, "cursor from the start", got[0], want)
	sameMessages(t, "cursor joining halfway", got[1], want)
}

// TestEventLogAppendAllocs pins append's steady state: once the names
// are interned it allocates nothing (recs grows amortized), and a parked
// subscriber costs one fresh wake channel.
func TestEventLogAppendAllocs(t *testing.T) {
	l := newEventLog()
	names := []string{"homogeneous", "hierarchical", "heterogeneous"}
	classes := map[string]int{}
	for _, name := range names {
		classes[name] = 0
	}
	ev := telemetry.ProgressEvent{Stage: "measure", Classes: classes}
	step := func() {
		ev.Done++
		ev.Pings += 5
		ev.Probes += 150
		classes[names[ev.Done%len(names)]]++
		l.append(ev)
	}
	step()
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Errorf("append allocates %v times per event with no subscriber parked", a)
	}
	r := l.replay()
	if a := testing.AllocsPerRun(100, func() { r.fetch(); step() }); a != 1 {
		t.Errorf("append with a parked subscriber allocates %v times, want 1 (the next wake channel)", a)
	}
}

// TestEventLogBytesPerEvent feeds one real 2000-block campaign's events
// into event logs and bounds the live heap each retained event costs:
// at most 16 bytes (the delta records take about 10; the JSON messages
// they replace took about 190). The replay must still be byte-identical.
func TestEventLogBytesPerEvent(t *testing.T) {
	spec := api.WorldSpecV1{Blocks: 2000, Scale: 0.25, Seed: 7}
	world, err := spec.World()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var evs []telemetry.ProgressEvent
	p := &core.Pipeline{
		Net:       probe.Instrument(probe.NewSimNetwork(world), reg, core.StageMeasure),
		Scanner:   world,
		Blocks:    world.Blocks(),
		Seed:      spec.Seed,
		Options:   core.Options{SkipClustering: true},
		Telemetry: reg,
		Progress: telemetry.SinkFunc(func(ev telemetry.ProgressEvent) {
			ev.Classes = maps.Clone(ev.Classes)
			evs = append(evs, ev)
		}),
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(evs) < 1000 {
		t.Fatalf("campaign emitted %d events, want a full 2000-block campaign's", len(evs))
	}

	// Several logs, so that the heap the runtime itself moves is noise
	// against what they hold.
	logs := make([]*eventLog, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range logs {
		logs[i] = newEventLog()
		for _, ev := range evs {
			logs[i].append(ev)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEvent := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(logs)*len(evs))
	t.Logf("%d events, %.1f live heap bytes per retained event", len(evs), perEvent)
	if perEvent > 16 {
		t.Errorf("retained history costs %.1f bytes per event, want <= 16", perEvent)
	}

	want := make([][]byte, len(evs))
	for i, ev := range evs {
		want[i] = progressJSON(t, ev)
	}
	sameMessages(t, "replay", replayAll(logs[len(logs)-1]), want)
	runtime.KeepAlive(logs)
}
