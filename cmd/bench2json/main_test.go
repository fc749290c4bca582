package main

import "testing"

// benchText builds a report of interleaved candidate/reference runs
// with the given ns/event values.
func benchText(t *testing.T, cand, ref []float64) Report {
	t.Helper()
	var rep Report
	for i := range cand {
		for _, b := range []struct {
			name string
			v    float64
		}{{"BenchmarkScale/stations=100-2", cand[i]}, {"BenchmarkScaleHeap/stations=100-2", ref[i]}} {
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{
				Name: b.name, Iterations: 3, Metrics: map[string]float64{"ns/event": b.v},
			})
		}
	}
	return rep
}

func TestRunComparePairedMedian(t *testing.T) {
	const name, against = "BenchmarkScale/stations=100", "BenchmarkScaleHeap/stations=100"
	for _, tc := range []struct {
		desc      string
		cand, ref []float64
		want      int
	}{
		// Ratios 0.97–1.01: median 0.995 and CI upper ≈1.012, both
		// inside 3%.
		{"median inside bound", []float64{97, 100, 99, 101, 100, 98}, []float64{100, 100, 100, 100, 100, 100}, 0},
		// Ratios 0.9, 1.0, 1.02, 5.0: the median (1.01) is inside 3%,
		// but the outlier pair widens the interval past the bound —
		// the pairs do not resolve the ratio, so the gate fails.
		{"outlier widens the interval", []float64{90, 100, 102, 500}, []float64{100, 100, 100, 100}, 1},
		// Ratios 0.97, 0.98, 1.0, 1.06, 1.07: median 1.0, but the 95%
		// upper bound (≈1.072) breaches 3%.
		{"CI upper over bound", []float64{97, 98, 100, 106, 107}, []float64{100, 100, 100, 100, 100}, 1},
		// Ratios 1.04, 1.05, 0.5: median 1.04 breaches 3%.
		{"median over bound", []float64{104, 105, 50}, []float64{100, 100, 100}, 1},
		// Host drift moves both sides of each pair: ratios stay 1.0.
		{"paired drift", []float64{100, 200, 400}, []float64{100, 200, 400}, 0},
		// One pair gives no interval.
		{"single pair", []float64{100}, []float64{100}, 1},
		{"unpaired counts", []float64{100, 100}, []float64{100}, 1},
	} {
		t.Run(tc.desc, func(t *testing.T) {
			rep := benchText(t, tc.cand[:min(len(tc.cand), len(tc.ref))], tc.ref)
			if len(tc.cand) > len(tc.ref) {
				rep.Benchmarks = append(rep.Benchmarks, Benchmark{
					Name: name, Metrics: map[string]float64{"ns/event": tc.cand[len(tc.ref)]},
				})
			}
			if got := runCompare(rep, name, against, "ns/event", 0.03); got != tc.want {
				t.Errorf("exit code %d, want %d", got, tc.want)
			}
		})
	}
	if got := runCompare(benchText(t, []float64{1}, []float64{1}), name, "BenchmarkMissing", "ns/event", 0.03); got != 1 {
		t.Errorf("missing reference: exit code %d, want 1", got)
	}
}

func TestRunExact(t *testing.T) {
	const name = "BenchmarkScale/stations=100"
	rep := func(vs ...float64) Report {
		var r Report
		for _, v := range vs {
			r.Benchmarks = append(r.Benchmarks, Benchmark{
				Name: name + "-2", Iterations: 3, Metrics: map[string]float64{"allocs/event": v},
			})
		}
		return r
	}
	for _, tc := range []struct {
		desc string
		rep  Report
		want int
	}{
		{"all zero", rep(0, 0, 0), 0},
		{"one stray allocation", rep(0, 1e-6, 0), 1},
		{"no runs", rep(), 1},
	} {
		if got := runExact(tc.rep, name, "allocs/event", 0); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.desc, got, tc.want)
		}
	}
}
