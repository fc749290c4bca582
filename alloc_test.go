// Allocation-budget guards for the simulator's steady-state hot path.
// Pooled timers, persistent Post callbacks and alloc-free header
// marshalling brought the full 802.11n HACK scenario below two heap
// allocations per scheduler event; MPDU/DataFrame freelists took it
// below 1.5; the per-network packet pool plus caller-owned ROHC and
// HACK buffers took the TCP/HACK packet path to ≈0.04; recycled
// channel transmissions, inline MAC control frames and exchanges, and
// capacity-keeping MAC queues took the last MAC and channel sites out,
// so a warm network allocates nothing at all. These tests keep it
// there: any per-packet, per-event or per-frame allocation brought
// back fails them.
package tcphack

import (
	"runtime"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/node"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// steadyStateAllocBudget is the allowed mallocs per executed scheduler
// event once the simulation is warm (measured ≈5 to 6 before the
// timer and callback pooling, ≈1.08 with the MPDU/DataFrame freelists,
// ≈0.043 with the packet pool, and exactly 0 — no malloc over the
// 3-second window — since the MAC and channel sites were recycled).
const steadyStateAllocBudget = 0

// campaignAllocBudget is the allowed mallocs for one serial run of the
// benchmark campaign grid (benchCampaignSpec(1): 8 points, 1 s warmup
// plus 1 s measurement each, setup included). It measured 433k before
// the packet pool, 52.4k after it, and 3.37k once the MAC and channel
// sites were recycled and the per-network freelists grew from slabs
// (what is left is network construction and freelist warm-up); the
// budget leaves ≈15% for runtime noise, far below what one per-packet
// allocation site reintroduced would add (tens of thousands).
const campaignAllocBudget = 3_850

// TestCampaignAllocBudget is the hard allocs/op budget on the
// BenchmarkCampaignRun grid: it runs the grid once, serially, and
// bounds the total mallocs. The simulation is deterministic, so the
// count moves only with code changes (and slightly with the runtime).
func TestCampaignAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	campaign.Run(benchCampaignSpec(1))
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("benchmark campaign grid: %d allocs/op, %d B/op", allocs, after.TotalAlloc-before.TotalAlloc)
	if allocs > campaignAllocBudget {
		t.Errorf("benchmark campaign grid allocated %d times, budget %d", allocs, campaignAllocBudget)
	}
}

// scaleAllocBudget is the allowed mallocs per executed scheduler event
// in the 100-station grid scenario (see scaleNetwork in bench_test.go):
// exactly 0 (measured ≈0.11 with the wheel and MSDU freelists, before
// the MAC and channel sites were recycled). CI runs this test as the
// hard allocation gate for the BenchmarkScale workload, next to an
// exact allocs/event == 0 gate on the benchmark itself.
const scaleAllocBudget = 0

// TestScaleAllocBudget runs the 100-station grid scenario to steady
// state on the timing wheel and asserts the per-event allocation rate
// stays under the large-N budget.
func TestScaleAllocBudget(t *testing.T) {
	n := scaleNetwork(100, sim.BackendWheel, nil)
	n.Run(scaleWarm)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev0 := n.Sched.EventsFired()
	n.Run(scaleWarm + sim.Second)
	runtime.ReadMemStats(&after)
	events := n.Sched.EventsFired() - ev0
	if events == 0 {
		t.Fatal("no events in the measurement window")
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("100-station steady state: %.3f allocs/event (%d mallocs over %d events)",
		perEvent, after.Mallocs-before.Mallocs, events)
	if perEvent > scaleAllocBudget {
		t.Errorf("100-station allocation rate %.3f allocs/event exceeds budget %v",
			perEvent, scaleAllocBudget)
	}
}

// TestNopTracerAllocFree asserts the disabled-tracing fast path stays
// allocation-free: the no-op tracer invoked through the Tracer
// interface — the exact shape of every probe site when tracing is on
// but a probe discards the event — must never allocate. (When tracing
// is off the probe sites skip the call entirely behind a nil check, so
// this bounds the worst case.)
func TestNopTracerAllocFree(t *testing.T) {
	var tr Tracer = trace.Nop{}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.TxStart(0, 1, 2, 3, 0, 150000, 1500, 16, 0, 100, 0)
		tr.Collision(50, 1, 2)
		tr.TxEnd(100, 1, true)
		tr.RxFrame(100, 2, 3, 16, 16)
		tr.NAV(100, 4, 200)
		tr.BAWindow(100, 2, 3, 7, 0xffff)
		tr.MPDUFate(100, 2, 3, 7, 1, 0)
		tr.HackState(100, 2, 3, 0, 1, 0)
		tr.ROHCPacket(100, 2, true, 40)
		tr.ROHCResult(100, 2, 8, 0, 0)
		tr.TCPRetransmit(100, 80, 4096)
		tr.TCPRTO(100, 80, 200)
		tr.TCPCwnd(100, 80, 10, 5)
	})
	if allocs != 0 {
		t.Errorf("no-op tracer allocated %.1f times per run, want 0", allocs)
	}
}

// TestSteadyStateAllocBudget runs the aggregated 802.11n HACK scenario
// to steady state and asserts the allocation rate per simulated event
// stays under the budget. Mallocs is a monotone total (GC does not
// reset it), and the simulation is single-goroutine, so the window
// delta is exact up to the test runtime's own background noise —
// which the wide event window drowns out.
func TestSteadyStateAllocBudget(t *testing.T) {
	cfg := NewScenario(With80211n(), WithMode(ModeMoreData), WithClients(2))
	n := node.New(cfg)
	for ci := 0; ci < 2; ci++ {
		n.StartDownload(ci, 0, 0)
	}
	n.Run(2 * sim.Second) // warm: handshakes, buffer growth, pool fill

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev0 := n.Sched.EventsFired()
	n.Run(5 * sim.Second)
	runtime.ReadMemStats(&after)
	events := n.Sched.EventsFired() - ev0
	if events == 0 {
		t.Fatal("no events in the measurement window")
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("steady state: %.3f allocs/event (%d mallocs over %d events)",
		perEvent, after.Mallocs-before.Mallocs, events)
	if perEvent > steadyStateAllocBudget {
		t.Errorf("steady-state allocation rate %.3f allocs/event exceeds budget %v",
			perEvent, steadyStateAllocBudget)
	}
}
