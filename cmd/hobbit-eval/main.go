// Command hobbit-eval regenerates the paper's tables and figures over the
// synthetic substrate. Each experiment prints the same rows or series the
// paper reports, annotated with the published values for comparison.
//
// Usage:
//
//	hobbit-eval -list
//	hobbit-eval [-blocks N] [-scale F] [-seed S] -exp table1
//	hobbit-eval [-blocks N] [-scale F] [-seed S] -exp all
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/hobbitscan/hobbit/internal/eval"
	"github.com/hobbitscan/hobbit/internal/netsim"
)

func main() {
	var (
		blocks  = flag.Int("blocks", 8000, "number of /24 blocks in the synthetic universe")
		scale   = flag.Float64("scale", 0.08, "scale factor for the planted Table-5 aggregates")
		seed    = flag.Uint64("seed", netsim.DefaultSeed, "world and measurement seed")
		exp     = flag.String("exp", "all", "experiment ID to run, or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		metrics = flag.String("metrics", "", "also write all experiment metrics as CSV to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	lab, err := eval.NewLab(eval.LabConfig{
		NumBlocks:     *blocks,
		BigBlockScale: *scale,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hobbit-eval:", err)
		os.Exit(1)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range eval.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	failed := false
	var reports []*eval.Report
	for _, id := range ids {
		start := time.Now()
		r, err := eval.Run(lab, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hobbit-eval: %s: %v\n", id, err)
			failed = true
			continue
		}
		r.WriteTo(os.Stdout)
		fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
		reports = append(reports, r)
	}
	if *metrics != "" {
		if err := writeMetricsCSV(*metrics, reports); err != nil {
			fmt.Fprintln(os.Stderr, "hobbit-eval:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeMetricsCSV emits every report's named metrics as
// experiment,metric,value rows for plotting or regression tracking.
func writeMetricsCSV(path string, reports []*eval.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"experiment", "metric", "value"}); err != nil {
		return err
	}
	for _, r := range reports {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := w.Write([]string{r.ID, k, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64)}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}
