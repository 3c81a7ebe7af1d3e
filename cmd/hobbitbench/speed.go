package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark's host is a shared virtual machine whose speed drifts
// by tens of percent over tens of seconds as other tenants load the
// physical cores (see README.md, "End-to-end metrics"). Wall times taken
// minutes apart are therefore not comparable as measured. Each timed
// end-to-end quantity is scaled to the speed of the calibration host:
// right before it, a fixed memory-bound reference loop is timed, and
// the quantity is multiplied by refNominal over that time. The loop
// does not touch the program's code, so a change to the program moves
// the scaled value exactly as it moves the raw one; the report prints
// the raw medians next to the scaled ones.

// refNominal is the reference loop's median time on the calibration
// host (2 vCPUs, go1.24.0 linux/amd64).
const refNominal = 25 * time.Millisecond

// refChildEnv marks the child process that runs the reference loop. It
// runs apart from the benchmark so that its 64 MiB table never counts
// towards the measured process's peak RSS.
const refChildEnv = "HOBBITBENCH_REFERENCE_LOOP"

// refTableWords sizes the table the loop reads at random: 64 MiB, far
// beyond the last-level cache, so the loop feels the memory contention
// that slows the pipeline.
const refTableWords = 8 << 20

// referenceLoop times one pass of the reference work: two goroutines
// each read 1.5M pseudo-random words of the table.
func referenceLoop(table []uint64) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, 2)
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, s := uint64(g)+1, uint64(0)
			for i := 0; i < 1500000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				s += table[(x>>20)&uint64(len(table)-1)]
			}
			sums[g] = s
		}(g)
	}
	wg.Wait()
	d := time.Since(t0)
	runtime.KeepAlive(sums)
	return d
}

// serveReferenceLoop is the child's main loop: one timing per input
// line, written back in nanoseconds, until stdin closes. It reports
// whether this process is that child.
func serveReferenceLoop() bool {
	if os.Getenv(refChildEnv) != "1" {
		return false
	}
	table := make([]uint64, refTableWords)
	for i := range table {
		table[i] = uint64(i) * 2654435761
	}
	referenceLoop(table) // the first pass pays for the child's cold start
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		fmt.Fprintln(os.Stdout, referenceLoop(table).Nanoseconds())
	}
	return true
}

// speedProbe talks to the reference-loop child.
type speedProbe struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	factors []float64
}

// startSpeedProbe starts the child (this same binary).
func startSpeedProbe(ctx context.Context) (*speedProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), refChildEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference loop: %w", err)
	}
	return &speedProbe{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// factor times the reference loop once and returns refNominal over its
// time: the factor that scales a wall time taken now to the
// calibration host's speed.
func (s *speedProbe) factor() (float64, error) {
	if _, err := io.WriteString(s.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference loop: %w", err)
	}
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return 0, fmt.Errorf("reference loop: %w", err)
		}
		return 0, errors.New("reference loop exited")
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(s.out.Text()), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference loop answered %q", s.out.Text())
	}
	f := float64(refNominal) / float64(ns)
	s.factors = append(s.factors, f)
	return f, nil
}

// stop closes the child's input, which ends it, and waits for it.
func (s *speedProbe) stop() {
	_ = s.in.Close()
	_ = s.cmd.Wait()
}
