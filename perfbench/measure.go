package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"tcphack/internal/campaign"
)

// line is one reported metric. Only lines with inResult set go into
// the final JSON object; the others are printed for the reader.
type line struct {
	name     string
	value    float64
	unit     string
	label    string // host, simulated, check, or the layer's name
	inResult bool
}

// measurement is what one workload run reports.
type measurement struct {
	lines []line
	notes []string
	chk   *checker
}

// minSamples is the pooled point-sample count below which the tail
// ladder would fall from p90 to the median.
const minSamples = 100

// measureEndToEnd runs the grid untraced for the whole budget and
// reports the end-to-end metrics. Host-time metrics are calibrated:
// each repetition's times are divided by its slowdown (see calib.go).
// The raw wall-clock values are printed beside them.
func measureEndToEnd(w workload, budget time.Duration) measurement {
	chk := newChecker()
	npts := len(w.spec.Points())
	minReps := max(3, (minSamples+npts-1)/npts)
	reps := repeatFor(w, budget, minReps, false, true, chk)

	// Each series is kept raw and calibrated.
	type series struct{ raw, cal []float64 }
	var pps, simRate, setup, pointMs, slowdown series
	add := func(s *series, v, slow float64) {
		s.raw = append(s.raw, v)
		s.cal = append(s.cal, v/slow)
	}
	for _, r := range reps {
		var simNs, simWall, setupS float64
		for _, sp := range r.spans {
			simNs += float64(sp.simTime)
			simWall += float64(sp.sim)
			setupS += sp.setup.Seconds()
			add(&pointMs, float64(sp.point)/float64(time.Millisecond), r.slowdown)
		}
		// Rates rise when times fall, so they are multiplied.
		add(&pps, float64(npts)/r.wall.Seconds(), 1/r.slowdown)
		add(&simRate, ratio(simNs, simWall), 1/r.slowdown)
		add(&setup, setupS, r.slowdown)
		slowdown.raw = append(slowdown.raw, r.slowdown)
	}
	pct, tailMs, _ := tail(pointMs.cal)
	_, tailRaw, _ := tail(pointMs.raw)
	rows := reps[0].rows
	m := measurement{chk: chk}
	m.lines = []line{
		{"points_per_s", median(pps.cal), "1/s", "host, calibrated", true},
		{"sim_s_per_host_s", median(simRate.cal), "s/s", "host, calibrated", true},
		{"point_wall_ms_p50", median(pointMs.cal), "ms", "host, calibrated", true},
		{"point_wall_ms_tail", tailMs, "ms", "host, calibrated", true},
		{"setup_s", median(setup.cal), "s", "host, calibrated", true},
		{"goodput_mbps", meanGoodput(rows), "Mbps", "simulated", true},
		{"failed_pct", chk.failedPct(), "%", "check", false},
	}
	if w.sweepsModes {
		m.lines = append(m.lines, line{"hack_gain_pct", hackGainPct(rows), "%", "simulated", false})
	}
	m.lines = append(m.lines,
		// GC pacing between the two workers spreads the peak by ±15–25%
		// from run to run at these heap sizes, too much to bound.
		line{"peak_rss_mb", peakRSSMB(), "MB", "host", false},
		line{"wall.points_per_s", median(pps.raw), "1/s", "host, raw wall clock", false},
		line{"wall.sim_s_per_host_s", median(simRate.raw), "s/s", "host, raw wall clock", false},
		line{"wall.point_wall_ms_p50", median(pointMs.raw), "ms", "host, raw wall clock", false},
		line{"wall.point_wall_ms_tail", tailRaw, "ms", "host, raw wall clock", false},
		line{"wall.setup_s", median(setup.raw), "s", "host, raw wall clock", false},
		line{"host_slowdown", median(slowdown.raw), "ratio", "calibration time / calibRef", false},
	)
	m.notes = append(m.notes,
		fmt.Sprintf("repetitions=%d points_per_rep=%d workers=%d calib_ref_ms=%g", len(reps), npts, workers,
			float64(calibRef)/float64(time.Millisecond)),
		fmt.Sprintf("point_wall_ms_tail is p%g of %d point samples", pct, len(pointMs.cal)),
		fmt.Sprintf("host_slowdown over repetitions: q1=%.4g median=%.4g q3=%.4g",
			quantile(slowdown.raw, 0.25), median(slowdown.raw), quantile(slowdown.raw, 0.75)))
	return m
}

// measureLayers runs the grid untraced for half the budget, then traced
// and CPU-profiled for the other half, and reports the per-layer
// metrics. scratch holds the dist store's temporary directory.
func measureLayers(w workload, budget time.Duration, scratch string) (measurement, error) {
	chk := newChecker()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := repeatFor(w, budget/2, 3, false, false, chk)
	runtime.ReadMemStats(&after)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return measurement{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := repeatFor(w, budget/2, 2, true, false, chk)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return measurement{}, err
	}
	byLayer, profTotal := foldByLayer(samples)

	var plainEvents, tracedEvents float64
	var nsPerEvent, busyPct, plainWall, tracedWall, buildMs []float64
	for _, r := range plain {
		var ev, simWall, pointWall float64
		for _, sp := range r.spans {
			ev += float64(sp.events)
			simWall += float64(sp.sim)
			pointWall += float64(sp.point)
			buildMs = append(buildMs, float64(sp.build)/float64(time.Millisecond))
		}
		plainEvents += ev
		nsPerEvent = append(nsPerEvent, ratio(simWall, ev))
		busyPct = append(busyPct, 100*ratio(pointWall, float64(workers)*float64(r.wall)))
		plainWall = append(plainWall, float64(r.wall))
	}
	for _, r := range traced {
		for _, sp := range r.spans {
			tracedEvents += float64(sp.events)
		}
		tracedWall = append(tracedWall, float64(r.wall))
	}
	// Counts are deterministic, so one traced repetition gives them.
	var c counter
	var gridEvents, busy, data, elapsed float64
	for _, sp := range traced[0].spans {
		c.add(sp.counts)
		gridEvents += float64(sp.events)
		busy += float64(sp.busy)
		data += float64(sp.data)
		elapsed += float64(sp.elapsed)
	}
	selfNs := func(layer string) float64 { return ratio(float64(byLayer[layer]), tracedEvents) }
	share := func(layer string) float64 { return 100 * ratio(float64(byLayer[layer]), float64(profTotal)) }
	f := func(x uint64) float64 { return float64(x) }

	l := func(name string, v float64, unit string) line {
		return line{name: name, value: v, unit: unit, label: "layer", inResult: true}
	}
	lines := []line{
		l("sim.events", gridEvents, "count"),
		l("sim.ns_per_event", median(nsPerEvent), "ns"),
		l("sim.self_ns_per_event", selfNs("sim"), "ns"),
		l("runtime.allocs_per_event", ratio(f(after.Mallocs-before.Mallocs), plainEvents), "count"),
		l("runtime.bytes_per_event", ratio(f(after.TotalAlloc-before.TotalAlloc), plainEvents), "B"),
		l("runtime.alloc_self_share", share("runtime.alloc"), "%"),
		l("runtime.gc_self_share", share("runtime.gc"), "%"),
		l("runtime.map_self_share", share("runtime.map"), "%"),
		l("runtime.gc_cycles", ratio(float64(after.NumGC-before.NumGC), float64(len(plain))), "count"),
		l("channel.tx", f(c.tx), "count"),
		l("channel.collided_pct", 100*ratio(f(c.txCollided), f(c.txEnded)), "%"),
		l("channel.busy_pct", 100*ratio(busy, elapsed), "%"),
		l("channel.airtime_efficiency", ratio(data, busy), "ratio"),
		l("channel.self_ns_per_event", selfNs("channel"), "ns"),
		l("mac.mpdus_sent", f(c.mpdus), "count"),
		l("mac.mpdu_delivered_pct", 100*ratio(f(c.delivered), f(c.mpdus)), "%"),
		l("mac.retries", f(c.retries), "count"),
		l("mac.nav_updates", f(c.nav), "count"),
		l("mac.ba_windows", f(c.baWindows), "count"),
		l("mac.self_ns_per_event", selfNs("mac"), "ns"),
		l("hack.transitions", f(c.hackTransitions), "count"),
		l("hack.resyncs", f(c.resyncs), "count"),
		l("hack.piggyback_pct", 100*ratio(f(c.rohcPackets), f(c.rohcPackets+c.nativeAckMPDUs)), "%"),
		l("hack.self_ns_per_event", selfNs("hack"), "ns"),
		l("rohc.packets", f(c.rohcPackets), "count"),
		l("rohc.ir_pct", 100*ratio(f(c.rohcIR), f(c.rohcPackets)), "%"),
		l("rohc.bytes_per_ack", ratio(f(c.rohcBytes), f(c.rohcPackets)), "B"),
		l("rohc.decomp_failures", f(c.decompFailures), "count"),
		l("rohc.self_ns_per_event", selfNs("rohc"), "ns"),
		l("tcp.retransmits", f(c.tcpRetransmits), "count"),
		l("tcp.rtos", f(c.tcpRTOs), "count"),
		l("tcp.self_ns_per_event", selfNs("tcp"), "ns"),
		l("packet.self_ns_per_event", selfNs("packet"), "ns"),
		l("node.self_ns_per_event", selfNs("node"), "ns"),
		l("node.build_ms_p50", median(buildMs), "ms"),
		l("campaign.worker_busy_pct", median(busyPct), "%"),
		l("trace.probes_per_event", ratio(f(c.probes), gridEvents), "count"),
		l("trace.overhead_pct", 100*(ratio(median(tracedWall), median(plainWall))-1), "%"),
	}

	// The results and dist layers run on wire workloads' rows only;
	// elsewhere they report 0.
	wireNames := []struct{ name, unit string }{
		{"results.table_ms", "ms"}, {"results.aggregate_ms", "ms"},
		{"results.compare_ms", "ms"}, {"results.emit_json_ms", "ms"},
		{"dist.plan_cold_ms", "ms"}, {"dist.plan_warm_ms", "ms"},
		{"dist.store_put_us_p50", "us"}, {"dist.store_get_us_p50", "us"},
	}
	var wire map[string]float64
	if w.wire != nil {
		var changed int
		wire, changed, err = timeWireLayers(w.wire, plain[0].rows, scratch)
		if err != nil {
			return measurement{}, err
		}
		// Each row's store round trip is one more checked attempt.
		chk.attempted += len(plain[0].rows)
		for range changed {
			chk.fail("store_round_trip")
		}
	}
	for _, wn := range wireNames {
		lines = append(lines, l(wn.name, wire[wn.name], wn.unit))
	}

	m := measurement{lines: lines, chk: chk}
	m.notes = append(m.notes,
		fmt.Sprintf("untraced_repetitions=%d traced_repetitions=%d profile_samples=%d profile_cpu_s=%.3f",
			len(plain), len(traced), len(samples), float64(profTotal)/1e9),
		"profile self time by layer: "+formatShares(byLayer, profTotal))
	return m, nil
}

// meanGoodput is the mean AggregateMbps per grid point.
func meanGoodput(rows campaign.Results) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.AggregateMbps
	}
	return mean(xs)
}

// hackGainPct is the mean, over grid cells, of the more-data point's
// AggregateMbps gain over the off point of the same cell, in %. A cell
// is every axis value except the mode.
func hackGainPct(rows campaign.Results) float64 {
	type cell struct{ off, moreData float64 }
	cells := make(map[string]*cell)
	var order []string
	for _, r := range rows {
		av := r.Point.AxisValues()
		delete(av, "mode")
		key := fmt.Sprint(av) // fmt prints maps in key order
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
			order = append(order, key)
		}
		switch r.ModeName {
		case "off":
			c.off = r.AggregateMbps
		case "more-data":
			c.moreData = r.AggregateMbps
		}
	}
	var gains []float64
	for _, k := range order {
		if c := cells[k]; c.off > 0 {
			gains = append(gains, 100*(c.moreData-c.off)/c.off)
		}
	}
	return mean(gains)
}

// formatShares renders each layer's share of profiled CPU time,
// largest first.
func formatShares(by map[string]int64, total int64) string {
	type kv struct {
		k string
		v int64
	}
	var kvs []kv
	for k, v := range by {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		return kvs[i].v > kvs[j].v || (kvs[i].v == kvs[j].v && kvs[i].k < kvs[j].k)
	})
	var b bytes.Buffer
	for i, e := range kvs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1f%%", e.k, 100*ratio(float64(e.v), float64(total)))
	}
	return b.String()
}
