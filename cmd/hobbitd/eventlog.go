package main

import (
	"encoding/binary"
	"encoding/json"
	"sort"
	"sync"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// eventLog is the progress history between one campaign and any number
// of SSE subscribers. Appends come from the campaign's collector
// goroutine; reads come from handler goroutines, each through its own
// replay cursor. Subscribers replay the retained history and then park
// on the wake channel, which the next append (if a subscriber holds it)
// or close closes — a broadcast without per-subscriber bookkeeping, so
// an SSE client that disconnects leaks nothing.
//
// A finished session keeps its whole history for late subscribers, so
// the log stores each retained event as a delta record against the one
// before it: about 10 bytes, where the event's progress message is about
// 190. A record is
//
//	flags   byte     which of the next five fields follow
//	stage   uvarint  name index, only when the stage changed
//	done    varint   delta, only when nonzero; likewise total, pings
//	                 and probes, in that order
//	k       uvarint  classes whose count changed, appeared or vanished
//	k × id  uvarint  name index << 1, | 1 for a class that left the map
//	    n   varint   count delta (from 0 for a new class), absent for one
//	                 that left
//
// Deltas wrap in two's complement, so any jump round-trips.
type eventLog struct {
	// every thins the stream: only events with Done%every == 0 — plus
	// each stage's first (Done 1) and last (Done == Total) — are
	// retained, bounding the SSE volume of big campaigns (0 = keep all).
	every int

	mu sync.Mutex
	// recs and names only grow, and bytes or entries once written never
	// change, so a replay decodes its snapshot of them outside the lock.
	recs  []byte
	names []string
	ids   map[string]int
	// last is the state after the newest record, the base of the next
	// one; next is scratch for the event being recorded.
	last, next eventState
	closed     bool
	// parked reports that a subscriber holds wake, so the next append
	// must close it; while nobody does, appends keep it.
	parked bool
	wake   chan struct{}
}

// eventState is a progress event as the log encodes it, with its stage
// and class names as indexes into the log's names.
type eventState struct {
	stage                      int
	done, total, pings, probes int64
	// classes holds one count per interned name; absent names count 0.
	classes []classCount
}

type classCount struct {
	n       int
	present bool
}

// Record flags: recStage marks a stage change, and the others a nonzero
// delta of their field.
const (
	recStage byte = 1 << iota
	recDone
	recTotal
	recPings
	recProbes
)

func newEventLog() *eventLog {
	return &eventLog{
		ids:  make(map[string]int),
		last: eventState{stage: -1},
		wake: make(chan struct{}),
	}
}

// keeps reports whether thinning retains ev.
func (l *eventLog) keeps(ev telemetry.ProgressEvent) bool {
	return l.every <= 1 || ev.Done%l.every == 0 || ev.Done == ev.Total || ev.Done == 1
}

// append records one progress event (subject to thinning) and wakes
// parked subscribers. It records the event before returning, because
// the campaign mutates the class map it shares between emissions.
// Events after close are dropped: the campaign's collector may still be
// draining when cancellation finishes the session. Once the event's
// names are interned and while no subscriber is parked, it allocates
// nothing beyond the amortized growth of recs.
func (l *eventLog) append(ev telemetry.ProgressEvent) {
	if !l.keeps(ev) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.internNew(ev)
	next := &l.next
	next.stage = l.ids[ev.Stage]
	next.done, next.total = int64(ev.Done), int64(ev.Total)
	next.pings, next.probes = ev.Pings, ev.Probes
	clear(next.classes)
	for name, n := range ev.Classes {
		next.classes[l.ids[name]] = classCount{n: n, present: true}
	}
	l.recs = appendRecord(l.recs, &l.last, next)
	l.last, l.next = l.next, l.last
	if l.parked {
		close(l.wake)
		l.wake = make(chan struct{})
		l.parked = false
	}
}

// internNew interns the names ev brings for the first time, its classes
// in sorted order so that indexes never depend on map iteration.
func (l *eventLog) internNew(ev telemetry.ProgressEvent) {
	if _, ok := l.ids[ev.Stage]; !ok {
		l.intern(ev.Stage)
	}
	var fresh []string
	for name := range ev.Classes {
		if _, ok := l.ids[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		l.intern(name)
	}
}

func (l *eventLog) intern(name string) {
	l.ids[name] = len(l.names)
	l.names = append(l.names, name)
	l.last.classes = append(l.last.classes, classCount{})
	l.next.classes = append(l.next.classes, classCount{})
}

// appendRecord appends the delta record that takes prev to cur.
func appendRecord(b []byte, prev, cur *eventState) []byte {
	at := len(b)
	b = append(b, 0)
	var flags byte
	if cur.stage != prev.stage {
		flags |= recStage
		b = binary.AppendUvarint(b, uint64(cur.stage))
	}
	for _, f := range [...]struct {
		flag byte
		d    int64
	}{
		{recDone, cur.done - prev.done}, {recTotal, cur.total - prev.total},
		{recPings, cur.pings - prev.pings}, {recProbes, cur.probes - prev.probes},
	} {
		if f.d != 0 {
			flags |= f.flag
			b = binary.AppendVarint(b, f.d)
		}
	}
	b[at] = flags
	k := 0
	for i, c := range cur.classes {
		if c != prev.classes[i] {
			k++
		}
	}
	b = binary.AppendUvarint(b, uint64(k))
	for i, c := range cur.classes {
		switch p := prev.classes[i]; {
		case c == p:
		case !c.present:
			b = binary.AppendUvarint(b, uint64(i)<<1|1)
		default:
			b = binary.AppendUvarint(b, uint64(i)<<1)
			b = binary.AppendVarint(b, int64(c.n-p.n))
		}
	}
	return b
}

// close seals the log and wakes subscribers one final time. Idempotent.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
}

// replay is one subscriber's cursor over an eventLog. It decodes records
// forward from where it last stopped into one reused event, so a live
// subscriber pays only for its new events and a late one replays the
// history once.
type replay struct {
	log *eventLog
	// recs and names are the log's as of the last fetch; off is how many
	// bytes of recs are decoded.
	recs  []byte
	names []string
	off   int
	// ev is the event the records decoded so far amount to.
	ev telemetry.ProgressEvent
}

func (l *eventLog) replay() *replay {
	return &replay{log: l, ev: telemetry.ProgressEvent{Classes: make(map[string]int)}}
}

// fetch makes the events appended so far available to next, and reports
// whether the log is sealed and a channel that closes on the next append
// or close. The subscriber loop is: fetch, drain next, then park on wake
// (or the client's context).
func (r *replay) fetch() (closed bool, wake <-chan struct{}) {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	r.recs, r.names = l.recs, l.names
	if !l.closed {
		l.parked = true
	}
	return l.closed, l.wake
}

// next decodes the next fetched record and returns its progress message,
// json.Marshal(api.Progress(ev)) of the event it recorded, or nil once
// every fetched record is decoded.
func (r *replay) next() []byte {
	if r.off == len(r.recs) {
		return nil
	}
	flags := r.recs[r.off]
	rd := recReader(r.recs[r.off+1:])
	ev := &r.ev
	if flags&recStage != 0 {
		ev.Stage = r.names[rd.uvarint()]
	}
	if flags&recDone != 0 {
		ev.Done += int(rd.varint())
	}
	if flags&recTotal != 0 {
		ev.Total += int(rd.varint())
	}
	if flags&recPings != 0 {
		ev.Pings += rd.varint()
	}
	if flags&recProbes != 0 {
		ev.Probes += rd.varint()
	}
	for k := rd.uvarint(); k > 0; k-- {
		id := rd.uvarint()
		name := r.names[id>>1]
		if id&1 != 0 {
			delete(ev.Classes, name)
			continue
		}
		ev.Classes[name] += int(rd.varint())
	}
	r.off = len(r.recs) - len(rd)
	// Strings, integers and a map[string]int always encode.
	msg, _ := json.Marshal(api.Progress(*ev))
	return msg
}

// recReader consumes one record's fields. The log writes whole records
// under its lock, so a fetched snapshot never ends inside one.
type recReader []byte

func (rd *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(*rd)
	*rd = (*rd)[n:]
	return v
}

func (rd *recReader) varint() int64 {
	v, n := binary.Varint(*rd)
	*rd = (*rd)[n:]
	return v
}
