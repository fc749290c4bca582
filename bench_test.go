// Benchmarks for the campaign runner — the engine every experiment
// rides on — plus ablations of the design choices DESIGN.md calls out
// and a raw simulator event-rate measurement. The campaign benchmark
// runs the same grid at -workers 1 and NumCPU so the reported
// per-iteration times measure the parallel speedup directly
// (`go test -bench=CampaignRun` prints both). cmd/hackbench
// regenerates the paper's tables and figures themselves.
package tcphack

import (
	"fmt"
	"runtime"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// benchOpts keeps per-iteration cost moderate; results stabilize at
// these windows (the paper used 120 s runs; goodput differences
// already resolve in a few simulated seconds of steady state).
var benchOpts = struct {
	Warmup, Measure sim.Duration
}{
	Warmup:  2 * sim.Second,
	Measure: 3 * sim.Second,
}

// benchCampaignSpec is a representative sweep: the 802.11n scenario
// over 2 modes × 2 client counts × 2 seeds = 8 independent
// simulations, enough grid points to keep every worker busy.
func benchCampaignSpec(workers int) campaign.Spec {
	return campaign.Spec{
		Name: "bench",
		Base: Scenario80211n(ModeOff, 1),
		Axes: campaign.Axes{
			Modes:   []hack.Mode{hack.ModeOff, hack.ModeMoreData},
			Clients: []int{1, 2},
			Seeds:   campaign.Seeds(1, 2),
		},
		Warmup:  sim.Second,
		Measure: sim.Second,
		Workers: workers,
	}
}

// BenchmarkCampaignRun measures the campaign runner itself: the same
// 8-point grid serial (workers=1) and parallel (workers=NumCPU). The
// ratio of the two per-iteration times is the parallel speedup; each
// variant also reports its simulated-points-per-second throughput.
func BenchmarkCampaignRun(b *testing.B) {
	counts := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		counts = counts[:1] // single-core host: nothing to parallelize over
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := benchCampaignSpec(workers)
			points := len(spec.Points())
			var goodput float64
			for i := 0; i < b.N; i++ {
				rs := campaign.Run(spec)
				goodput = rs[0].AggregateMbps
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
			b.ReportMetric(goodput, "row0_mbps")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

func ablationRun(b *testing.B, mutate func(*node.Config)) float64 {
	cfg := Scenario80211n(ModeMoreData, 1)
	mutate(&cfg)
	n := node.New(cfg)
	f := n.StartDownload(0, 0, 0)
	n.Run(benchOpts.Warmup)
	f.Goodput.MarkWindow(n.Sched.Now())
	n.Run(benchOpts.Warmup + benchOpts.Measure)
	return f.Goodput.WindowMbps(n.Sched.Now())
}

// BenchmarkAblationHoldPolicy compares the three holding policies from
// §3.2 head to head.
func BenchmarkAblationHoldPolicy(b *testing.B) {
	var more, opp, timer float64
	for i := 0; i < b.N; i++ {
		more = ablationRun(b, func(c *node.Config) { c.Mode = hack.ModeMoreData })
		opp = ablationRun(b, func(c *node.Config) { c.Mode = hack.ModeOpportunistic })
		timer = ablationRun(b, func(c *node.Config) { c.Mode = hack.ModeTimer })
	}
	b.ReportMetric(more, "moredata_mbps")
	b.ReportMetric(opp, "opportunistic_mbps")
	b.ReportMetric(timer, "timer_mbps")
}

// BenchmarkAblationAggregation quantifies how much of HACK's edge
// survives without A-MPDU batching (the 802.11a-style MAC).
func BenchmarkAblationAggregation(b *testing.B) {
	var withAgg, withoutAgg float64
	for i := 0; i < b.N; i++ {
		withAgg = ablationRun(b, func(c *node.Config) {})
		withoutAgg = ablationRun(b, func(c *node.Config) { c.Aggregation = false })
	}
	b.ReportMetric(withAgg, "aggregated_mbps")
	b.ReportMetric(withoutAgg, "single_mpdu_mbps")
}

// BenchmarkAblationTXOP explores the §5 observation that tighter TXOP
// limits raise HACK's relative value by shrinking batches.
func BenchmarkAblationTXOP(b *testing.B) {
	var txop4ms, txop1ms float64
	for i := 0; i < b.N; i++ {
		txop4ms = ablationRun(b, func(c *node.Config) {})
		txop1ms = ablationRun(b, func(c *node.Config) { c.TXOPLimit = sim.Millisecond })
	}
	b.ReportMetric(txop4ms, "txop4ms_mbps")
	b.ReportMetric(txop1ms, "txop1ms_mbps")
}

// --- N-scaling (timing-wheel) suite ---

// The scale scenario: n stations on a dense 2 m grid (everyone within
// carrier-sense range, so every frame touches every station's NAV and
// carrier state — the timer-churn regime the wheel is built for), each
// sinking its share of an 80 Mbps aggregate UDP downlink.
const (
	scaleWarm          = 500 * sim.Millisecond
	scaleMeasure       = 1500 * sim.Millisecond
	scaleAggregateKbps = 80_000
)

// scaleNetwork builds the n-station grid scenario on the given
// scheduler backend with staggered per-client UDP downloads. A nil
// geometry is the default single collision domain; a path-loss
// geometry keeps every station inside carrier-sense range at 2 m
// spacing, so the collision-domain shape is the same while the power
// matrix and per-receiver sensing carry the load.
func scaleNetwork(stations int, backend sim.Backend, geom *channel.Geometry) *node.Network {
	cfg := scenario.New(scenario.With80211n(), scenario.WithGrid(stations, 2))
	cfg.SchedulerBackend = backend
	cfg.Geometry = geom
	n := node.New(cfg)
	for ci := 0; ci < stations; ci++ {
		n.StartUDPDownload(ci, scaleAggregateKbps/stations, 1500,
			sim.Duration(ci)*37*sim.Microsecond)
	}
	return n
}

// benchScale runs the grid scenario at each station count, timing only
// the steady-state window (network construction and warmup excluded),
// and reports events/s, allocs/event, and ns/event.
func benchScale(b *testing.B, backend sim.Backend, geom *channel.Geometry) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			var events, mallocs uint64
			var before, after runtime.MemStats
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				net := scaleNetwork(n, backend, geom)
				net.Run(scaleWarm)
				runtime.ReadMemStats(&before)
				ev0 := net.Sched.EventsFired()
				b.StartTimer()
				net.Run(scaleWarm + scaleMeasure)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				events += net.Sched.EventsFired() - ev0
				mallocs += after.Mallocs - before.Mallocs
			}
			if events == 0 {
				b.Fatal("no events in the measurement window")
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(events)/sec, "events/s")
			b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
			b.ReportMetric(sec*1e9/float64(events), "ns/event")
		})
	}
}

// BenchmarkScale measures the production (timing-wheel) scheduler's
// event throughput on the default single collision domain as the
// network grows from 10 to 1000 stations.
func BenchmarkScale(b *testing.B) { benchScale(b, sim.BackendWheel, nil) }

// BenchmarkScaleHeap runs the identical workload on the retained
// binary-heap backend — the pre-wheel baseline the scaling numbers are
// compared against.
func BenchmarkScaleHeap(b *testing.B) { benchScale(b, sim.BackendHeap, nil) }

// BenchmarkScaleSpatial runs the identical workload on the default
// path-loss geometry (timing-wheel scheduler) — the cost of the power
// matrix, per-receiver carrier sensing, and SINR capture relative to
// the single collision domain, gated in CI against the heap backend's
// ns/event measured in the same rounds.
func BenchmarkScaleSpatial(b *testing.B) {
	benchScale(b, sim.BackendWheel, channel.DefaultGeometry())
}

// BenchmarkSimulatorEventRate measures raw simulator throughput: a
// saturated 10-client 802.11n network's events per wall second.
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := Scenario80211n(ModeMoreData, 10)
		n := node.New(cfg)
		for ci := 0; ci < 10; ci++ {
			n.StartDownload(ci, 0, 0)
		}
		n.Run(sim.Second)
		events = n.Sched.EventsFired()
	}
	b.ReportMetric(float64(events), "events/simsec")
}
