// Exact event-count gate: the number of events a fixed campaign point
// fires is deterministic, so any change that adds, drops or reorders
// scheduled work shows up here as an exact mismatch, long before it
// moves a goodput figure.
package tcphack

import (
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/node"
	"tcphack/internal/sim"
)

// campaignPointEvents is sim.events (Scheduler.EventsFired) for the
// point eventGateSpec runs, recorded before same-instant Post runs
// began to skip the event queue: how events are queued may change, how
// many fire may not.
const campaignPointEvents = 100_573

// eventGateSpec is one campaign point: 802.11n, HACK MORE-DATA, two
// clients, seed 1, 1 s warmup plus 2 s measurement, run through the
// campaign runner (and so through Scheduler.RunUntil).
func eventGateSpec(fired *uint64) campaign.Spec {
	return campaign.Spec{
		Name: "events",
		Base: NewScenario(With80211n(), WithMode(ModeMoreData), WithClients(2), WithSeed(1)),
		Axes: campaign.Axes{Seeds: []int64{1}},
		Collect: func(n *node.Network, _ *campaign.Result) {
			*fired = n.Sched.EventsFired()
		},
		Warmup:  sim.Second,
		Measure: 2 * sim.Second,
		Workers: 1,
	}
}

// TestCampaignPointEventCount requires the point to fire exactly
// campaignPointEvents events.
func TestCampaignPointEventCount(t *testing.T) {
	var fired uint64
	spec := eventGateSpec(&fired)
	if n := len(spec.Points()); n != 1 {
		t.Fatalf("gate spec has %d points, want 1", n)
	}
	campaign.Run(spec)
	if fired != campaignPointEvents {
		t.Errorf("sim.events = %d, want exactly %d", fired, campaignPointEvents)
	}
}
