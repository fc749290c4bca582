package main

import (
	"fmt"
	"hash/fnv"

	"tcphack/internal/campaign"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// workers is the campaign worker pool size of every workload: one per
// CPU of the 2-vCPU host the baseline was measured on, fixed so that
// the measured work does not depend on the host.
const workers = 2

// workload is one named campaign the benchmark runs.
type workload struct {
	name string
	why  string
	// wire is the workload's serializable form, nil when the grid
	// needs a traffic hook no WireSpec can name. Only wire workloads
	// exercise the results and dist layers.
	wire *campaign.WireSpec
	spec campaign.Spec
	// sweepsModes marks a grid that pairs every off point with a
	// more-data point, so hack_gain_pct is defined.
	sweepsModes bool
}

// workloadNames lists the workloads in the order --workload all runs
// them.
var workloadNames = []string{"paper-ht150", "grid-udp-1000", "spatial-lossy-2bss"}

// Grid-UDP traffic, as in the repository's N-station scale benchmark:
// an 80 Mbps aggregate downlink of 1500 B datagrams, one flow per
// station, starts staggered 37 µs apart.
const (
	gridStations     = 1000
	gridSpacingM     = 2
	gridAggregateKbp = 80_000
	gridPacketBytes  = 1500
	gridStagger      = 37 * sim.Microsecond
	gridSeeds        = 6
)

// newWorkload materializes the named workload with point seeds derived
// from seed.
func newWorkload(name string, seed int64) (workload, error) {
	modes := []string{"off", "more-data"}
	switch name {
	case "paper-ht150":
		w := &campaign.WireSpec{
			Name:     name,
			Scenario: "ht150-stock",
			Axes: campaign.WireAxes{
				Modes:   modes,
				Clients: []int{1, 2, 5, 10},
				Seeds:   pointSeeds(seed, name, 2),
			},
			Warmup:  sim.Second,
			Measure: 2 * sim.Second,
		}
		return wireWorkload(name, "the paper's headline 802.11n TCP download sweep; tcp, rohc, hack, packet and the Go allocator all do real work", w)
	case "spatial-lossy-2bss":
		w := &campaign.WireSpec{
			Name:     name,
			Scenario: "ht150-stock",
			Axes: campaign.WireAxes{
				Modes:      modes,
				Clients:    []int{3},
				Topologies: []string{"2bss-hidden", "2bss-overlap"},
				Loss:       []float64{0.05},
				Seeds:      pointSeeds(seed, name, 4),
			},
			Warmup:  sim.Second,
			Measure: 2 * sim.Second,
		}
		return wireWorkload(name, "two BSSs with 5% loss: path-loss/SINR channel, HACK resync and TCP loss recovery instead of the steady paths", w)
	case "grid-udp-1000":
		return workload{
			name: name,
			why:  "1000 UDP stations on the scalar channel: event core, MAC and carrier fan-out only, no allocation or protocol work",
			spec: campaign.Spec{
				Name:     name,
				Base:     scenario.New(scenario.With80211n(), scenario.WithGrid(gridStations, gridSpacingM)),
				Axes:     campaign.Axes{Seeds: pointSeeds(seed, name, gridSeeds)},
				Warmup:   100 * sim.Millisecond,
				Measure:  200 * sim.Millisecond,
				Workers:  workers,
				Workload: startGridUDP,
			},
		}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

func wireWorkload(name, why string, w *campaign.WireSpec) (workload, error) {
	spec, err := w.Spec()
	if err != nil {
		return workload{}, fmt.Errorf("workload %s: %w", name, err)
	}
	spec.Workers = workers
	return workload{name: name, why: why, wire: w, spec: spec, sweepsModes: true}, nil
}

// startGridUDP starts one UDP downlink per station.
func startGridUDP(n *node.Network, _ campaign.Point) {
	per := gridAggregateKbp / len(n.Clients)
	for ci := range n.Clients {
		n.StartUDPDownload(ci, per, gridPacketBytes, sim.Duration(ci)*gridStagger)
	}
}

// pointSeeds derives a workload's n simulation seeds from the
// benchmark seed: the k-th is a splitmix64 finalizer over the seed, the
// workload name and k, truncated to a positive 31-bit value. Several
// seeds per grid cell average out how much one seed's backoff draws
// move goodput.
func pointSeeds(seed int64, workload string, n int) []int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	base := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()
	seeds := make([]int64, n)
	for k := range seeds {
		x := base + uint64(k)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		seeds[k] = int64(x >> 33)
	}
	return seeds
}
