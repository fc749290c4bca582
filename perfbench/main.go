// Command perfbench is the repository benchmark. It runs one named
// campaign workload through campaign.Run, two workers in one process,
// repeatedly for a wall-time budget; checks every output row; and
// prints its metrics by name and unit. The last line of output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are end to end and measured with tracing
// off. With --trace 1 they are per layer: counts from a counting tracer
// and an airtime ledger attached through campaign.Spec.Trace, and self
// time per event from a CPU profile folded by package. The benchmark
// observes the simulator only through public hooks and changes none of
// its code.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-ht150 --seed 1 --seconds 15 --trace 0
//
// --workload all runs every workload in turn.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "benchmark seed; every simulation seed derives from it")
	seconds := fs.Float64("seconds", 15, "wall-time budget of the measurement, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced, profiled run")
	scratch := fs.String("scratch", os.TempDir(), "directory for the dist store's temporary files")
	commit := fs.String("commit", "unknown", "source revision, for the host fingerprint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	budget := time.Duration(*seconds * float64(time.Second))

	h, err := json.Marshal(fingerprint(*commit))
	if err != nil {
		return err
	}
	for _, n := range names {
		w, err := newWorkload(n, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# workload %s seed=%d point_seeds=%v: %s\n", w.name, *seed, w.spec.Axes.Seeds, w.why)
		fmt.Fprintf(stdout, "# host %s\n", h)
		var m measurement
		if *traced == 1 {
			if m, err = measureLayers(w, budget, *scratch); err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
		} else {
			m = measureEndToEnd(w, budget)
		}
		res := result{
			Correct:   m.chk.failed == 0,
			Attempted: m.chk.attempted,
			Failed:    m.chk.failed,
			Metrics:   make(map[string]metric),
		}
		for _, l := range m.lines {
			fmt.Fprintf(stdout, "%-28s %16.6g %-6s %s\n", l.name, l.value, l.unit, l.label)
			if l.inResult {
				res.Metrics[l.name] = metric{l.value, l.unit}
			}
		}
		for _, note := range m.notes {
			fmt.Fprintln(stdout, "#", note)
		}
		fmt.Fprintf(stdout, "# checks: attempted=%d failed=%d faults: %s\n",
			m.chk.attempted, m.chk.failed, m.chk.summary())
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return nil
}
