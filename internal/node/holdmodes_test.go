package node_test

import (
	"bytes"
	"os"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/hack"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// holdModesSpec is a small lossy sweep over the two HACK modes the
// paper grid never runs: opportunistic (native withdrawal, the
// per-packet resolved map) and timer (hold timers and their flushes).
// Airtime is on so every ledger bucket is pinned too.
func holdModesSpec() campaign.Spec {
	return campaign.Spec{
		Name: "hold-modes",
		Base: scenario.New(scenario.With80211n(), scenario.WithClients(2)),
		Axes: campaign.Axes{
			Modes: []hack.Mode{hack.ModeOpportunistic, hack.ModeTimer},
			Seeds: campaign.Seeds(1, 2),
			Loss:  []float64{0, 0.05},
		},
		Warmup:  100 * sim.Millisecond,
		Measure: 200 * sim.Millisecond,
		Workers: 2,
		Airtime: true,
	}
}

// TestHoldModesOracleRows requires the hold-modes sweep to reproduce,
// byte for byte, the rows recorded before packets were pooled
// (testdata/hold-modes-oracle-rows.json). The file is an oracle: it is
// never regenerated from the current code.
func TestHoldModesOracleRows(t *testing.T) {
	want, err := os.ReadFile("testdata/hold-modes-oracle-rows.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := campaign.Run(holdModesSpec()).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("hold-modes rows diverge from the oracle:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}
