// Command bench2json converts `go test -bench` text output (read from
// stdin) into deterministic JSON on stdout, so benchmark results can
// be archived as CI artifacts and committed as points of the repo's
// performance trajectory (BENCH_<pr>.json files).
//
//	go test -run '^$' -bench BenchmarkCampaignRun -benchtime 1x -benchmem . \
//	    | go run ./cmd/bench2json > bench.json
//
// Every benchmark line becomes one entry carrying the iteration count
// and all reported metrics — the standard ns/op, B/op, allocs/op plus
// any custom b.ReportMetric units (points/s, row0_mbps, ...). Context
// lines (goos/goarch/pkg/cpu) are captured verbatim.
//
// With -compare the command gates instead of converting. The bench
// text on stdin holds repeated, interleaved runs of a candidate
// benchmark and its reference, measured in the same job; the i-th
// candidate result pairs with the i-th reference result. The command
// exits 1 when the median candidate/reference ratio of the metric
// exceeds 1 + the relative tolerance:
//
//	go test -c -o scale.test .
//	for i in $(seq 10); do
//	    ./scale.test -test.run '^$' -test.benchtime 3x \
//	        -test.bench '^BenchmarkScale(|Heap)$/^stations=100$'
//	done | go run ./cmd/bench2json -compare \
//	    -name 'BenchmarkScale/stations=100' \
//	    -against 'BenchmarkScaleHeap/stations=100' \
//	    -metric ns/event -rel 0.03
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the full converted output.
type Report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "gate the median -name/-against metric ratio over paired runs in the stdin bench text instead of converting")
	name := flag.String("name", "", "with -compare: candidate benchmark name (sub-bench path, -N CPU suffix stripped)")
	against := flag.String("against", "", "with -compare: reference benchmark name, measured in the same bench text")
	metric := flag.String("metric", "ns/event", "with -compare: metric unit to compare")
	rel := flag.Float64("rel", 0.03, "with -compare: allowed relative increase of the median ratio over 1")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench2json: unexpected arguments %q (bench text is read from stdin)\n", flag.Args())
		os.Exit(1)
	}

	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "Benchmark") {
			switch k {
			case "goos", "goarch", "pkg", "cpu":
				rep.Context[k] = v
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: skipping %q: %v\n", line, err)
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *compare {
		os.Exit(runCompare(rep, *name, *against, *metric, *rel))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// runCompare gates the median candidate/reference ratio of one metric
// over the paired runs in rep. It returns the process exit code: 0
// within tolerance, 1 regressed (or the lookup failed — a silent pass
// on a renamed benchmark would hollow the gate out).
func runCompare(rep Report, name, against, metric string, rel float64) int {
	if name == "" || against == "" {
		fmt.Fprintln(os.Stderr, "bench2json: -compare requires -name and -against")
		return 1
	}
	cand, ref := metricRuns(rep, name, metric), metricRuns(rep, against, metric)
	if len(cand) == 0 || len(cand) != len(ref) {
		fmt.Fprintf(os.Stderr, "bench2json: %d %q and %d %q %s results on stdin, want equal non-zero counts\n",
			len(cand), name, len(ref), against, metric)
		return 1
	}
	ratios := make([]float64, len(cand))
	for i := range cand {
		ratios[i] = cand[i] / ref[i]
	}
	sort.Float64s(ratios)
	n := len(ratios)
	median := (ratios[(n-1)/2] + ratios[n/2]) / 2
	verdict := "OK"
	code := 0
	if !(median <= 1+rel) {
		verdict = "REGRESSED"
		code = 1
	}
	fmt.Printf("%s: %s / %s %s median ratio %.4f over %d pairs (min %.4f, max %.4f; limit %.4f)\n",
		verdict, name, against, metric, median, n, ratios[0], ratios[n-1], 1+rel)
	return code
}

// metricRuns returns a benchmark's metric from every run in rep, in
// input order, ignoring the "-<GOMAXPROCS>" suffix go test appends.
func metricRuns(rep Report, name, metric string) []float64 {
	var vs []float64
	for _, b := range rep.Benchmarks {
		if stripCPUSuffix(b.Name) != stripCPUSuffix(name) {
			continue
		}
		if v, ok := b.Metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// stripCPUSuffix removes a trailing "-<digits>" benchmark-name suffix.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if tail := name[i+1:]; tail != "" {
		for _, c := range tail {
			if c < '0' || c > '9' {
				return name
			}
		}
		return name[:i]
	}
	return name
}

// parseLine splits "BenchmarkX-8  3  42 ns/op  1.5 points/s ..." into
// name, iteration count, and (value, unit) metric pairs.
func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, fmt.Errorf("want at least name, count, and one metric pair")
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count %q", fields[1])
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("odd metric field count")
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad metric value %q", rest[i])
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, nil
}
