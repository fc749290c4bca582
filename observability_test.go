// Observability contract tests: attaching a tracer must not perturb a
// simulation (determinism neutrality), and the airtime ledger must
// account for every nanosecond of simulated time (conservation).
package tcphack

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sync"
	"testing"

	"tcphack/internal/sim"
)

// observabilityCampaign is the grid both determinism tests run: both
// HACK modes over a lossless and a lossy channel, so the traced run
// exercises retries, BAR recovery, and the resync state machine — the
// probe-densest paths — not just the happy path.
func observabilityCampaign() Campaign {
	return Campaign{
		Name: "obs",
		Base: NewScenario(With80211n()),
		Axes: CampaignAxes{
			Modes: []Mode{ModeOff, ModeMoreData},
			Loss:  []float64{0, 0.05},
		},
		Warmup:  500 * Millisecond,
		Measure: 500 * Millisecond,
		Workers: 1,
	}
}

// TestTracerDeterminismNeutral runs the same campaign bare and with a
// flight recorder attached to every grid point, and requires the
// emitted result rows to be byte-identical: tracing observes the
// simulation, it never steers it (no RNG draws, no scheduled events,
// no state mutation). The recorder must also have seen a substantial
// event stream, so a silently detached tracer cannot pass.
func TestTracerDeterminismNeutral(t *testing.T) {
	var bare bytes.Buffer
	if err := RunCampaign(observabilityCampaign()).WriteJSON(&bare); err != nil {
		t.Fatal(err)
	}

	var recorders []*TraceRecorder
	spec := observabilityCampaign()
	spec.Trace = func(pt CampaignPoint) Tracer {
		r := NewTraceRecorder(0)
		recorders = append(recorders, r)
		return r
	}
	var traced bytes.Buffer
	if err := RunCampaign(spec).WriteJSON(&traced); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(bare.Bytes(), traced.Bytes()) {
		t.Errorf("attaching a trace recorder changed the campaign results:\nbare:   %d bytes\ntraced: %d bytes",
			bare.Len(), traced.Len())
	}
	if len(recorders) != 4 {
		t.Fatalf("%d recorders, want one per grid point (4)", len(recorders))
	}
	for i, r := range recorders {
		if r.Total() == 0 {
			t.Errorf("recorder %d saw no events", i)
		}
	}
}

// TestAirtimeLedgerDeterminismNeutral repeats the byte-identity check
// with the airtime ledger as the attached tracer — the ledger does
// bookkeeping on every TxStart/TxEnd, so it is the heaviest shipped
// tracer — comparing only the rows, since Airtime mode legitimately
// adds Extra columns.
func TestAirtimeLedgerDeterminismNeutral(t *testing.T) {
	bare := RunCampaign(observabilityCampaign())

	spec := observabilityCampaign()
	spec.Airtime = true
	traced := RunCampaign(spec)

	if len(bare) != len(traced) {
		t.Fatalf("row counts differ: %d vs %d", len(bare), len(traced))
	}
	for i := range bare {
		b, tr := bare[i], traced[i]
		if _, ok := tr.Extra["airtime_efficiency"]; !ok {
			t.Errorf("row %d: Airtime mode emitted no airtime_efficiency column", i)
		}
		tr.Extra = nil // the ledger's own output — the only allowed delta
		b.Extra = nil
		if !resultsEqual(b, tr) {
			t.Errorf("row %d differs with the airtime ledger attached:\nbare:   %+v\ntraced: %+v", i, b, tr)
		}
	}
}

// resultsEqual compares two campaign rows field-by-field through their
// JSON forms (Result holds a slice, so == does not apply).
func resultsEqual(a, b CampaignResult) bool {
	var ab, bb bytes.Buffer
	if err := (CampaignResults{a}).WriteJSON(&ab); err != nil {
		return false
	}
	if err := (CampaignResults{b}).WriteJSON(&bb); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

// TestAirtimeConservation attaches the ledger to a single simulation —
// lossless and lossy — and requires every nanosecond to be accounted:
// busy + idle == elapsed exactly, with the busy total agreeing with
// the medium's own AirtimeBusy counter.
func TestAirtimeConservation(t *testing.T) {
	for _, loss := range []float64{0, 0.05} {
		ledger := NewAirtimeLedger()
		opts := []ScenarioOption{
			With80211n(), WithMode(ModeMoreData), WithClients(2), WithTracer(ledger),
		}
		if loss > 0 {
			opts = append(opts, WithUniformLoss(loss))
		}
		n := NewNetwork(NewScenario(opts...))
		for ci := 0; ci < 2; ci++ {
			n.StartDownload(ci, 0, 0)
		}
		n.Run(2 * Second)

		now := n.Sched.Now()
		rep := ledger.Snapshot(now)
		if Duration(rep.Elapsed) != Duration(now) {
			t.Errorf("loss=%g: elapsed %d != sim time %d", loss, rep.Elapsed, now)
		}
		if !rep.Conserved() {
			t.Errorf("loss=%g: conservation violated: busy %d + idle %d != elapsed %d",
				loss, rep.Busy(), rep.Idle, rep.Elapsed)
		}
		// The settled buckets must agree with the medium's own busy-time
		// counter; a transmission still in the air at the cut accrues in
		// the snapshot before the medium books it.
		busy, medium := rep.Busy(), Duration(n.Medium.AirtimeBusy)
		if ledger.InFlight() == 0 {
			if busy != medium {
				t.Errorf("loss=%g: ledger busy %d != medium AirtimeBusy %d", loss, busy, medium)
			}
		} else if busy < medium {
			t.Errorf("loss=%g: ledger busy %d < medium AirtimeBusy %d with %d tx in flight",
				loss, busy, medium, ledger.InFlight())
		}
		if rep.Total.Data == 0 {
			t.Errorf("loss=%g: no data airtime attributed", loss)
		}
		if eff := rep.Efficiency(); eff <= 0 || eff > 1 {
			t.Errorf("loss=%g: efficiency %v out of (0, 1]", loss, eff)
		}
	}
}

// traceBytesCampaign is a 30-client MORE-DATA grid over two seeds: dense
// enough that three transmissions overlap, which is where an unordered
// collision loop would emit its probes in a varying order.
func traceBytesCampaign(workers int, backend sim.Backend) Campaign {
	base := NewScenario(With80211n(), WithClients(30), WithMode(ModeMoreData))
	base.SchedulerBackend = backend
	return Campaign{
		Name:    "trace-bytes",
		Base:    base,
		Axes:    CampaignAxes{Seeds: CampaignSeeds(1, 2)},
		Warmup:  Second,
		Measure: Second,
		Workers: workers,
	}
}

// tracedPoints runs spec with a JSONL writer on every grid point and
// returns each point's trace bytes, indexed by point.
func tracedPoints(t *testing.T, spec Campaign) [][]byte {
	t.Helper()
	bufs := make([]*bytes.Buffer, len(spec.Points()))
	var mu sync.Mutex
	spec.Trace = func(pt CampaignPoint) Tracer {
		b := new(bytes.Buffer)
		mu.Lock()
		bufs[pt.Index] = b
		mu.Unlock()
		return NewTraceWriter(b)
	}
	RunCampaign(spec)
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		if b == nil || b.Len() == 0 {
			t.Fatalf("point %d wrote no trace", i)
		}
		out[i] = b.Bytes()
	}
	return out
}

// multiCollisions counts transmissions that collided with two or more
// ongoing ones at their start: consecutive collision records sharing
// a time and a transmission ID.
func multiCollisions(t *testing.T, jsonl []byte) int {
	t.Helper()
	type record struct {
		T    int64  `json:"t"`
		Kind string `json:"kind"`
		ID   uint64 `json:"id"`
	}
	var prev record
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	for sc.Scan() {
		var cur record
		if err := json.Unmarshal(sc.Bytes(), &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Kind == "collision" && prev.Kind == "collision" && cur.T == prev.T && cur.ID == prev.ID {
			n++
		}
		prev = cur
	}
	return n
}

// TestTraceBytesDeterministic requires the same seeds to produce
// byte-identical JSONL traces on every run, for campaign worker counts
// 1 and 2 and either scheduler backend — not just the same multiset of
// records. The grid must contain multi-way collisions, the case that
// exercises the order of collision probes.
func TestTraceBytesDeterministic(t *testing.T) {
	want := tracedPoints(t, traceBytesCampaign(1, sim.BackendWheel))
	multi := 0
	for _, b := range want {
		multi += multiCollisions(t, b)
	}
	if multi == 0 {
		t.Fatal("no transmission collided with two others; the grid does not exercise probe order")
	}
	// Three more runs of the same seeds cover every worker-count and
	// backend combination, each a fresh chance for an unordered probe
	// loop to reorder records.
	for _, run := range []struct {
		workers int
		backend sim.Backend
		name    string
	}{{2, sim.BackendWheel, "wheel"}, {1, sim.BackendHeap, "heap"}, {2, sim.BackendHeap, "heap"}} {
		got := tracedPoints(t, traceBytesCampaign(run.workers, run.backend))
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s backend, workers %d: point %d trace sha256 %x, first run %x",
					run.name, run.workers, i, sha256.Sum256(got[i]), sha256.Sum256(want[i]))
			}
		}
	}
}
