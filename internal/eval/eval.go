// Package eval regenerates every table and figure of the paper's
// evaluation over the synthetic substrate: each experiment runs the same
// code path the original measurement campaign did — census, probing,
// classification, aggregation, clustering — and reports the rows or
// series the paper reports, for side-by-side comparison in EXPERIMENTS.md.
package eval

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/core"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// Lab is the shared environment experiments run in: one world, one probing
// surface, and the cached end-to-end pipeline output.
type Lab struct {
	World *netsim.World
	Net   *probe.SimNetwork
	Seed  uint64

	mu      sync.Mutex
	out     *core.Output
	dataset *TraceDataset
}

// LabConfig sizes the laboratory world.
type LabConfig struct {
	// NumBlocks is the /24 universe size (default 4000).
	NumBlocks int
	// BigBlockScale scales the planted Table 5 aggregates (default
	// 0.05 so laboratory runs stay fast; 1.0 reproduces paper-sized
	// blocks).
	BigBlockScale float64
	// Seed defaults to the netsim default seed.
	Seed uint64
}

func (c LabConfig) withDefaults() LabConfig {
	if c.NumBlocks <= 0 {
		c.NumBlocks = 4000
	}
	if c.BigBlockScale <= 0 {
		c.BigBlockScale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = netsim.DefaultSeed
	}
	return c
}

// NewLab builds a laboratory world.
func NewLab(cfg LabConfig) (*Lab, error) {
	cfg = cfg.withDefaults()
	w, err := api.WorldSpecV1{Blocks: cfg.NumBlocks, Scale: cfg.BigBlockScale, Seed: cfg.Seed}.World()
	if err != nil {
		return nil, err
	}
	return &Lab{
		World: w,
		Net:   probe.NewSimNetwork(w),
		Seed:  cfg.Seed,
	}, nil
}

// traceBlocks bounds the homogeneous blocks fully traced for the
// dataset-driven experiments.
const traceBlocks = 250

// strideSample picks up to n elements spread evenly across a slice, so
// bounded experiment samples stay representative of the whole universe
// (consecutive /24s share allocation regions and pops).
func strideSample[T any](in []T, n int) []T {
	if n <= 0 || len(in) <= n {
		return in
	}
	out := make([]T, 0, n)
	step := float64(len(in)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, in[int(float64(i)*step)])
	}
	return out
}

// Config returns the configuration of the lab's end-to-end run, so a
// caller can measure with exactly its options (core.Pipeline.Measurer).
func (l *Lab) Config() *core.Pipeline {
	return &core.Pipeline{
		Net:     l.Net,
		Scanner: l.World,
		Blocks:  l.World.Blocks(),
		Seed:    l.Seed,
		Options: core.Options{ValidatePairs: 2000},
	}
}

// Pipeline returns the cached end-to-end output, running it on first use.
func (l *Lab) Pipeline() (*core.Output, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out != nil {
		return l.out, nil
	}
	p := l.Config()
	// The lock deliberately serializes the one expensive pipeline run:
	// concurrent experiments sharing a Lab must see a single memoized
	// output, and the double-check pattern would instead run the
	// campaign once per racer.
	out, err := p.Run(context.Background())
	if err != nil {
		return nil, err
	}
	l.out = out
	return out, nil
}

// Report is an experiment's structured outcome: rendered lines for the
// terminal plus named metrics for tests and EXPERIMENTS.md.
type Report struct {
	ID      string
	Title   string
	Lines   []string
	Metrics map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: make(map[string]float64)}
}

func (r *Report) printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var n int64
	k, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, line := range r.Lines {
		k, err = fmt.Fprintln(w, line)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(l *Lab) (*Report, error)
}

var registry []Experiment

func register(id, title string, run func(l *Lab) (*Report, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments lists registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes one experiment by ID.
func Run(l *Lab, id string) (*Report, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run(l)
		}
	}
	return nil, fmt.Errorf("eval: unknown experiment %q", id)
}
