package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/hobbit"
)

// blockRecord is one per-/24 measurement result as -output streams it:
// the verdict and the probe accounting, small enough that a million-block
// run writes records as fast as the campaign produces them.
type blockRecord struct {
	Block     string `json:"block"`
	Class     string `json:"class"`
	LastHops  int    `json:"last_hops"`
	Probed    int    `json:"probed"`
	Responded int    `json:"responded"`
	Degraded  int    `json:"degraded,omitempty"`
}

// resultWriter streams campaign results to a file as each becomes final,
// then closes the document with the run summary. The layout is one JSON
// object — {"version":1,"blocks":[...],"summary":{...}} — with every
// block record on its own line, so the finished file is plain JSON for jq
// while the growing file stays greppable line by line during the run.
// Records pass through a large buffered writer; nothing is retained per
// block, which is what lets the nightly million-block pipeline emit its
// full result set without holding a rendered report in memory.
type resultWriter struct {
	f  *os.File
	bw *bufio.Writer
	n  int
	// err latches the first write failure; sink becomes a no-op and the
	// error resurfaces from finish, so a full disk fails the run instead
	// of truncating it silently.
	err  error
	done bool
}

func newResultWriter(path string) (*resultWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &resultWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20)}
	_, w.err = w.bw.WriteString("{\"version\":1,\"blocks\":[")
	return w, nil
}

// sink is the core.Pipeline.ResultSink callback: it runs on the
// collector goroutine, in campaign order, never concurrently.
func (w *resultWriter) sink(br *hobbit.BlockResult) {
	if w.err != nil {
		return
	}
	rec := blockRecord{
		Block:     br.Block.String(),
		Class:     br.Class.String(),
		LastHops:  len(br.LastHops),
		Probed:    br.Probed,
		Responded: br.Responded,
		Degraded:  br.Degraded,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		w.err = err
		return
	}
	sep := byte('\n')
	if w.n > 0 {
		sep = ','
	}
	if w.err = w.bw.WriteByte(sep); w.err != nil {
		return
	}
	if w.n > 0 {
		if w.err = w.bw.WriteByte('\n'); w.err != nil {
			return
		}
	}
	if _, w.err = w.bw.Write(b); w.err != nil {
		return
	}
	w.n++
}

// finish closes the blocks array, appends the run summary, and flushes.
func (w *resultWriter) finish(sum api.RunSummaryV1) error {
	if w.err == nil {
		_, w.err = w.bw.WriteString("\n],\"summary\":")
	}
	if w.err == nil {
		b, err := json.Marshal(sum)
		if err == nil {
			_, err = w.bw.Write(b)
		}
		w.err = err
	}
	if w.err == nil {
		_, w.err = w.bw.WriteString("}\n")
	}
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	cerr := w.f.Close()
	w.done = true
	if w.err != nil {
		return fmt.Errorf("output: %w", w.err)
	}
	if cerr != nil {
		return fmt.Errorf("output: %w", cerr)
	}
	return nil
}

// abort closes the file on error paths that never reach finish, leaving
// the partial document on disk for inspection.
func (w *resultWriter) abort() {
	if w == nil || w.done {
		return
	}
	w.bw.Flush()
	w.f.Close()
	w.done = true
}
