package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// tinyWorkload is a two-point more-data/off grid short enough for unit
// tests.
func tinyWorkload(t *testing.T) workload {
	t.Helper()
	w, err := wireWorkload("tiny", "unit-test grid", &campaign.WireSpec{
		Name:     "tiny",
		Scenario: "ht150-stock",
		Axes: campaign.WireAxes{
			Modes:   []string{"off", "more-data"},
			Clients: []int{2},
			Seeds:   []int64{3},
		},
		Warmup:  50 * sim.Millisecond,
		Measure: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The counting tracer's per-point sums agree with the rows, the
// airtime ledger conserves, and attaching both changes no row byte.
func TestTracedRepCountsAndNeutrality(t *testing.T) {
	w := tinyWorkload(t)
	plain := runRep(w, false)
	traced := runRep(w, true)
	for i, sp := range traced.spans {
		row := traced.rows[i]
		if !sp.conserved {
			t.Errorf("point %d: airtime not conserved", i)
		}
		if sp.events == 0 || sp.simTime != 150*sim.Millisecond {
			t.Errorf("point %d: events=%d simTime=%v", i, sp.events, sp.simTime)
		}
		c := sp.counts
		if c.tx == 0 || c.tx < c.txEnded || c.tx-c.txEnded > 2 {
			t.Errorf("point %d: tx=%d txEnded=%d", i, c.tx, c.txEnded)
		}
		if c.mpdus != c.delivered+c.retries+c.expired {
			t.Errorf("point %d: %d MPDU fates, %d+%d+%d by kind", i, c.mpdus, c.delivered, c.retries, c.expired)
		}
		if c.decompFailures != row.DecompFailures {
			t.Errorf("point %d: counted %d decompression failures, row has %d", i, c.decompFailures, row.DecompFailures)
		}
		if (row.ModeName == "more-data") != (c.rohcPackets > 0) {
			t.Errorf("point %d (%s): %d ROHC packets", i, row.ModeName, c.rohcPackets)
		}
		want := c.tx + c.txEnded + c.collisions + c.rxFrames + c.nav + c.baWindows + c.mpdus +
			c.hackTransitions + c.rohcPackets + c.tcpRetransmits + c.tcpRTOs + c.tcpCwnd
		if c.probes < want {
			t.Errorf("point %d: %d probes, fewer than the %d counted by kind", i, c.probes, want)
		}
		if plain.spans[i].counts != (counter{}) {
			t.Errorf("point %d: untraced repetition counted probes", i)
		}
	}
	var a, b bytes.Buffer
	if err := plain.rows.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.rows.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("tracing changed the rows")
	}
}

func TestCounterAdd(t *testing.T) {
	var a, b counter
	a.TxStart(0, 1, 1, 2, trace.ClassTCPAck, 0, 0, 3, 0, 0, 0)
	a.MPDUFate(0, 1, 2, 0, 0, trace.FateDelivered)
	b.TxStart(0, 2, 1, 2, trace.ClassData, 0, 0, 5, 0, 0, 0)
	b.ROHCPacket(0, 1, true, 7)
	b.ROHCPacket(0, 1, false, 4)
	a.add(b)
	if a.probes != 5 || a.tx != 2 || a.nativeAckMPDUs != 3 || a.delivered != 1 ||
		a.rohcPackets != 2 || a.rohcIR != 1 || a.rohcBytes != 11 {
		t.Errorf("sum = %+v", a)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload BENCHMARK.json names exists, and the final JSON line
// carries exactly the metrics it lists, with the same units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
		if _, err := newWorkload(wl.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}

	w := tinyWorkload(t)
	e2e := measureEndToEnd(w, time.Millisecond)
	layers, err := measureLayers(w, time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []measurement{e2e, layers} {
		if m.chk.failed != 0 {
			t.Errorf("tiny workload failed its checks: %s", m.chk.summary())
		}
	}
	check := func(kind string, want []struct{ Name, Unit string }, m measurement) {
		got := map[string]string{}
		for _, l := range m.lines {
			if l.inResult {
				got[l.name] = l.unit
			}
		}
		for _, w := range want {
			if u, ok := got[w.Name]; !ok || u != w.Unit {
				t.Errorf("%s metric %s [%s]: output has unit %q (present %v)", kind, w.Name, w.Unit, u, ok)
			}
			delete(got, w.Name)
		}
		for name := range got {
			t.Errorf("%s metric %s is reported but not in BENCHMARK.json", kind, name)
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layers)
}

func TestPointSeedsDeriveFromSeed(t *testing.T) {
	a, _ := newWorkload("grid-udp-1000", 7)
	b, _ := newWorkload("grid-udp-1000", 7)
	c, _ := newWorkload("grid-udp-1000", 8)
	if !slices.Equal(a.spec.Axes.Seeds, b.spec.Axes.Seeds) {
		t.Error("same seed gave different point seeds")
	}
	if slices.Equal(a.spec.Axes.Seeds, c.spec.Axes.Seeds) {
		t.Error("different seeds gave the same point seeds")
	}
	for _, s := range a.spec.Axes.Seeds {
		if s <= 0 {
			t.Errorf("point seed %d is not positive", s)
		}
	}
}

func TestHackGainPct(t *testing.T) {
	rows := campaign.Results{
		{Point: campaign.Point{Clients: 1}, ModeName: "off", AggregateMbps: 100},
		{Point: campaign.Point{Clients: 2}, ModeName: "off", AggregateMbps: 50},
		{Point: campaign.Point{Clients: 1}, ModeName: "more-data", AggregateMbps: 120},
		{Point: campaign.Point{Clients: 2}, ModeName: "more-data", AggregateMbps: 55},
	}
	if got := hackGainPct(rows); got != 15 { // mean of +20% and +10%
		t.Errorf("hackGainPct = %g, want 15", got)
	}
}
