package main

import (
	"sync"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/node"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// pointSpan is one grid point's host-time spans and simulator counts,
// read through the campaign hooks.
type pointSpan struct {
	build time.Duration // inside node.New
	setup time.Duration // Build entry to Workload return
	sim   time.Duration // Workload return to Collect entry
	point time.Duration // Build entry to Collect return

	simTime sim.Time // simulated time advanced
	events  uint64   // Scheduler.EventsFired

	// Traced repetitions only: the point's probe counts and airtime.
	counts    counter
	conserved bool // AirtimeReport.Conserved; true when untraced
	busy      sim.Duration
	data      sim.Duration
	elapsed   sim.Duration
}

// rep is one campaign.Run of a workload's grid.
type rep struct {
	wall  time.Duration
	rows  campaign.Results
	spans []pointSpan // by grid index
	// slowdown is the calibration time around the repetition over
	// calibRef: host-time figures divided by it read as if measured on
	// the reference host. It is 1 for uncalibrated repetitions.
	slowdown float64
}

// openPoint is a grid point between its Build and Collect hooks.
type openPoint struct {
	start, built, ready time.Time
}

// runRep runs the workload's grid once. traced attaches a counting
// tracer and an airtime ledger to every point through Spec.Trace; the
// rows must not change when it does.
func runRep(w workload, traced bool) rep {
	s := w.spec
	npts := len(s.Points())
	spans := make([]pointSpan, npts)
	workload := s.Workload

	var mu sync.Mutex
	open := make(map[*node.Network]*openPoint)
	lookup := func(n *node.Network) *openPoint {
		mu.Lock()
		defer mu.Unlock()
		return open[n]
	}

	var counters []*counter
	var ledgers []*trace.AirtimeLedger
	if traced {
		counters = make([]*counter, npts)
		ledgers = make([]*trace.AirtimeLedger, npts)
		s.Trace = func(pt campaign.Point) trace.Tracer {
			c, l := &counter{}, trace.NewAirtimeLedger()
			counters[pt.Index], ledgers[pt.Index] = c, l
			return trace.Multi(c, l)
		}
	}
	s.Build = func(cfg node.Config) *node.Network {
		start := time.Now()
		n := node.New(cfg)
		built := time.Now()
		mu.Lock()
		open[n] = &openPoint{start: start, built: built}
		mu.Unlock()
		return n
	}
	// Build, Workload and Collect of one point run on one worker
	// goroutine in that order, so the openPoint fields need no lock.
	s.Workload = func(n *node.Network, pt campaign.Point) {
		workload(n, pt)
		lookup(n).ready = time.Now()
	}
	s.Collect = func(n *node.Network, r *campaign.Result) {
		collect := time.Now()
		op := lookup(n)
		sp := &spans[r.Index]
		sp.build = op.built.Sub(op.start)
		sp.setup = op.ready.Sub(op.start)
		sp.sim = collect.Sub(op.ready)
		sp.simTime = n.Sched.Now()
		sp.events = n.Sched.EventsFired()
		sp.conserved = true
		if traced {
			sp.counts = *counters[r.Index]
			a := ledgers[r.Index].Snapshot(n.Sched.Now())
			sp.conserved = a.Conserved()
			sp.busy, sp.data, sp.elapsed = a.Busy(), a.Total.Data, a.Elapsed
		}
		mu.Lock()
		delete(open, n)
		mu.Unlock()
		sp.point = time.Since(op.start)
	}

	start := time.Now()
	rows := campaign.Run(s)
	return rep{wall: time.Since(start), rows: rows, spans: spans}
}

// repeatFor runs the grid until budget has elapsed and at least
// minReps repetitions are done, feeding every repetition's rows to the
// checker. calibrated times the calibration load before the first
// repetition and after each one, and sets each repetition's slowdown
// from the mean of the two calibrations around it.
func repeatFor(w workload, budget time.Duration, minReps int, traced, calibrated bool, chk *checker) []rep {
	var reps []rep
	deadline := time.Now().Add(budget)
	var before time.Duration
	if calibrated {
		before = calibrate()
	}
	for len(reps) < minReps || time.Now().Before(deadline) {
		r := runRep(w, traced)
		chk.check(r.rows, r.spans)
		r.slowdown = 1
		if calibrated {
			after := calibrate()
			r.slowdown = float64(before+after) / float64(2*calibRef)
			before = after
		}
		reps = append(reps, r)
	}
	return reps
}
