// Differential geometry harness: the medium's original scalar
// implementation — every radio senses everything, every frame reaches
// everyone, any overlap collides — is the oracle for the spatial engine
// pinned to the degenerate geometry, which is also what a nil
// Config.Geometry means. The scalar implementation itself is gone; what
// remains of it is its output, recorded before its removal: event-time
// digests of the ht150 network workload (the same one the scheduler
// differential suite drives) and the JSON rows of a small campaign
// sweep. Any divergence is a spatial-engine semantics bug.
package node_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// geometryTrace runs the ht150 network (aggregated 802.11n, HACK
// MORE-DATA, 3 TCP downloads) on the given geometry for at most
// maxEvents events and returns the number of events executed, the
// scheduler's EventsFired, and the SHA-256 of the event times (each a
// little-endian int64).
func geometryTrace(geom *channel.Geometry, loss float64, maxEvents int) (int, uint64, string) {
	opts := []scenario.Option{
		scenario.With80211n(),
		scenario.WithClients(3),
		scenario.WithMode(hack.ModeMoreData),
	}
	if loss > 0 {
		opts = append(opts, scenario.WithUniformLoss(loss))
	}
	cfg := scenario.New(opts...)
	cfg.Geometry = geom
	n := node.New(cfg)
	for ci := 0; ci < 3; ci++ {
		n.StartDownload(ci, 0, sim.Duration(ci)*sim.Millisecond)
	}
	h := sha256.New()
	var buf [8]byte
	events := 0
	for events < maxEvents && n.Sched.Step() {
		binary.LittleEndian.PutUint64(buf[:], uint64(n.Sched.Now()))
		h.Write(buf[:])
		events++
	}
	return events, n.Sched.EventsFired(), hex.EncodeToString(h.Sum(nil))
}

// TestDifferentialGeometryTrace requires the degenerate geometry, both
// explicit and as the nil default, to replay the scalar channel's
// recorded event trace exactly, lossless and at 5% uniform loss. Loss
// exercises the RNG path: the spatial engine must draw exactly the same
// random numbers at the same points, or retry timers shift and the
// digests diverge.
func TestDifferentialGeometryTrace(t *testing.T) {
	const maxEvents = 200_000
	for _, tc := range []struct {
		name   string
		loss   float64
		fired  uint64
		digest string
	}{
		{"lossless", 0, 200_000, "d6dd7b1e1d518d834b334b53d7d8152affda50d374fa40ab802a3f8c1941fa31"},
		{"loss5pct", 0.05, 200_000, "10a448a0845721f2d05770de816067b73193d07514327453bf302e6f69f1d743"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range []struct {
				name string
				geom *channel.Geometry
			}{{"nil", nil}, {"degenerate", channel.DegenerateGeometry()}} {
				events, fired, digest := geometryTrace(g.geom, tc.loss, maxEvents)
				if events != maxEvents {
					t.Fatalf("%s geometry: trace stopped after %d events, want %d", g.name, events, maxEvents)
				}
				if fired != tc.fired {
					t.Errorf("%s geometry: events fired %d, scalar oracle %d", g.name, fired, tc.fired)
				}
				if digest != tc.digest {
					t.Errorf("%s geometry: event-time digest %s, scalar oracle %s", g.name, digest, tc.digest)
				}
			}
		})
	}
}

// TestDifferentialCampaignRows runs one small sweep — across modes,
// seeds, and a lossy point, with the airtime ledger on — and requires
// its JSON rows to match, byte for byte, the rows the scalar channel
// emitted for the same sweep (testdata/degenerate-oracle-rows.json).
// Every metric, counter, and airtime bucket is covered.
func TestDifferentialCampaignRows(t *testing.T) {
	want, err := os.ReadFile("testdata/degenerate-oracle-rows.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		geom *channel.Geometry
	}{{"nil", nil}, {"degenerate", channel.DegenerateGeometry()}} {
		cfg := scenario.New(scenario.With80211n(), scenario.WithClients(2))
		cfg.Geometry = g.geom
		spec := campaign.Spec{
			Name: "differential",
			Base: cfg,
			Axes: campaign.Axes{
				Modes: []hack.Mode{hack.ModeOff, hack.ModeMoreData},
				Seeds: campaign.Seeds(1, 2),
				Loss:  []float64{0, 0.05},
			},
			Warmup:  100 * sim.Millisecond,
			Measure: 200 * sim.Millisecond,
			Workers: 2,
			Airtime: true,
		}
		var got bytes.Buffer
		if err := campaign.Run(spec).WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s geometry: campaign rows diverge from the scalar oracle:\n--- got ---\n%s\n--- want ---\n%s",
				g.name, got.String(), want)
		}
	}
}
