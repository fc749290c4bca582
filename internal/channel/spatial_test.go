package channel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// scriptedMedium builds a medium with three radios in the channel test
// layout and runs a fixed transmission script with overlapping and
// sequential frames — the stimulus for the degenerate-geometry
// equivalence check.
func scriptedMedium(g *Geometry) (*Medium, []*testRadio) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = g
	a := &testRadio{}
	b := &testRadio{pos: Pos{X: 5}}
	c := &testRadio{pos: Pos{Y: 3}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	// Overlap pair, a clean frame, then a triple overlap.
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, "A1") })
	s.At(10*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1500, "B1") })
	s.At(2*sim.Millisecond, func() { m.Transmit(c, phy.RateA24, 300, "C1") })
	s.At(4*sim.Millisecond, func() { m.Transmit(a, phy.RateA54, 1500, "A2") })
	s.At(4*sim.Millisecond+20*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1400, "B2") })
	s.At(4*sim.Millisecond+40*sim.Microsecond, func() { m.Transmit(c, phy.RateA54, 1300, "C2") })
	s.Run()
	return m, []*testRadio{a, b, c}
}

// TestDegenerateMatchesScalar is the channel-level differential check:
// the degenerate geometry, explicit or as the nil default, must
// reproduce the scalar channel's observable behavior on the script —
// outcomes, frames, carrier edges, and counters — exactly. The expected
// values were recorded from the scalar implementation before it was
// removed.
func TestDegenerateMatchesScalar(t *testing.T) {
	want := []testRadio{
		{received: []Outcome{RxCollided, RxOK, RxCollided, RxCollided},
			frames: []any{"B1", "C1", "B2", "C2"}, busy: 3, idle: 3},
		{received: []Outcome{RxCollided, RxOK, RxCollided, RxCollided},
			frames: []any{"A1", "C1", "A2", "C2"}, busy: 3, idle: 3},
		{received: []Outcome{RxCollided, RxCollided, RxCollided, RxCollided},
			frames: []any{"A1", "B1", "A2", "B2"}, busy: 3, idle: 3},
	}
	for _, g := range []struct {
		name string
		geom *Geometry
	}{{"nil", nil}, {"degenerate", DegenerateGeometry()}} {
		m, radios := scriptedMedium(g.geom)
		for i, r := range radios {
			if !reflect.DeepEqual(r.received, want[i].received) {
				t.Errorf("%s: radio %d outcomes %v, scalar %v", g.name, i, r.received, want[i].received)
			}
			if !reflect.DeepEqual(r.frames, want[i].frames) {
				t.Errorf("%s: radio %d frames %v, scalar %v", g.name, i, r.frames, want[i].frames)
			}
			if r.busy != want[i].busy || r.idle != want[i].idle {
				t.Errorf("%s: radio %d busy/idle %d/%d, scalar %d/%d",
					g.name, i, r.busy, r.idle, want[i].busy, want[i].idle)
			}
		}
		if m.TxCount != 6 || m.CollidedTx != 5 || m.AirtimeBusy != 634*sim.Microsecond {
			t.Errorf("%s: TxCount/CollidedTx/AirtimeBusy = %d/%d/%v, scalar 6/5/634µs",
				g.name, m.TxCount, m.CollidedTx, m.AirtimeBusy)
		}
	}
}

// TestDegenerateIgnoresPositions: under the degenerate geometry the
// medium is one collision domain however far apart the radios are —
// even where path loss underflows to 0 mW — and it builds no N² power
// matrix: every row aliases one shared row.
func TestDegenerateIgnoresPositions(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	a := &testRadio{}
	b := &testRadio{pos: Pos{X: 1e300}}
	c := &testRadio{pos: Pos{Y: 1e300}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, "A") })
	s.At(10*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1500, "B") })
	s.Run()
	for i, r := range []*testRadio{a, b, c} {
		for _, o := range r.received {
			if o != RxCollided {
				t.Errorf("radio %d outcomes %v, want all collided", i, r.received)
				break
			}
		}
		if r.busy != 1 || r.idle != 1 {
			t.Errorf("radio %d busy/idle %d/%d, want 1/1", i, r.busy, r.idle)
		}
	}
	if len(c.received) != 2 || m.CollidedTx != 2 {
		t.Errorf("third radio got %d frames, CollidedTx %d; want 2 and 2", len(c.received), m.CollidedTx)
	}
	if &m.powerMW[0][0] != &m.powerMW[2][0] {
		t.Error("degenerate geometry built per-radio power rows")
	}
}

// TestSpatialReuse pins the hidden-terminal physics at the channel
// level: two senders out of mutual range transmit concurrently. Each
// sender's nearby receiver decodes its frame (spatial reuse / capture),
// a receiver in the crossfire loses both, and the senders never sense
// each other.
func TestSpatialReuse(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = DefaultGeometry()
	a := &testRadio{pos: Pos{X: 0}}
	b := &testRadio{pos: Pos{X: 100}}
	nearA := &testRadio{pos: Pos{X: 2}}
	nearB := &testRadio{pos: Pos{X: 98}}
	mid := &testRadio{pos: Pos{X: 50}}
	for _, r := range []*testRadio{a, b, nearA, nearB, mid} {
		m.Attach(r)
	}
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, "A") })
	s.At(5*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1500, "B") })
	s.Run()

	if got := nearA.received; len(got) != 1 || got[0] != RxOK {
		t.Errorf("nearA outcomes %v, want [ok] (capture over 98 m interferer)", got)
	}
	if got := nearB.received; len(got) != 1 || got[0] != RxOK {
		t.Errorf("nearB outcomes %v, want [ok]", got)
	}
	if len(mid.received) != 2 {
		t.Fatalf("mid received %d frames, want both", len(mid.received))
	}
	for i, o := range mid.received {
		if o != RxCollided {
			t.Errorf("mid frame %d outcome %v, want collided", i, o)
		}
	}
	// 100 m apart is far beyond the ≈51.5 m sense range: neither sender
	// hears the other, and the overlap is uncoupled spatial reuse —
	// neither a carrier edge nor a counted collision at the senders.
	if a.busy != 1 || b.busy != 1 {
		t.Errorf("sender busy edges a=%d b=%d, want 1 each (own tx only)", a.busy, b.busy)
	}
	if len(a.received) != 0 || len(b.received) != 0 {
		t.Errorf("senders received frames from out-of-range peer: a=%v b=%v",
			a.received, b.received)
	}
}

// TestSpatialCarrierSense checks the energy-detect deferral footprint:
// a radio inside the carrier-sense range gets busy/idle edges for a
// foreign transmission, a radio beyond it stays idle.
func TestSpatialCarrierSense(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = DefaultGeometry()
	src := &testRadio{}
	near := &testRadio{pos: Pos{X: 40}}
	far := &testRadio{pos: Pos{X: 60}}
	m.Attach(src)
	m.Attach(near)
	m.Attach(far)
	m.Transmit(src, phy.RateA54, 1500, "x")
	s.Run()

	if near.busy != 1 || near.idle != 1 {
		t.Errorf("near busy/idle = %d/%d, want 1/1", near.busy, near.idle)
	}
	if far.busy != 0 || far.idle != 0 {
		t.Errorf("far busy/idle = %d/%d, want 0/0 (beyond CS range)", far.busy, far.idle)
	}
	if len(near.received) != 1 || near.received[0] != RxOK {
		t.Errorf("near outcomes %v", near.received)
	}
	if len(far.received) != 0 {
		t.Errorf("far received %v, want nothing (below delivery floor)", far.received)
	}
	if src.busy != 1 || src.idle != 1 {
		t.Errorf("src busy/idle = %d/%d, want 1/1 (own transmission)", src.busy, src.idle)
	}
}

// TestCaptureThreshold checks the capture decision directly: a strong
// frame decodes over a weak interferer, the margin can disable capture
// entirely, and a frame with no interferers always decodes.
func TestCaptureThreshold(t *testing.T) {
	g := DefaultGeometry()
	if !g.CaptureOK(phy.RateA54, -50, nil) {
		t.Error("frame with no interferers must decode")
	}
	if !g.CaptureOK(phy.RateA54, -50, []float64{-85}) {
		t.Error("35 dB SIR should capture at 54 Mbps")
	}
	if g.CaptureOK(phy.RateA54, -60, []float64{-62}) {
		t.Error("2 dB SIR should not decode 64-QAM")
	}
	noCapture := *g
	noCapture.CaptureMarginDB = math.Inf(1)
	if noCapture.CaptureOK(phy.RateA54, -50, []float64{-85}) {
		t.Error("infinite capture margin must reject any overlapped frame")
	}
}

// TestSINRThresholdOrdering: faster rates need more SINR.
func TestSINRThresholdOrdering(t *testing.T) {
	rates := []phy.Rate{phy.RateA6, phy.RateA24, phy.RateA54}
	for i := 1; i < len(rates); i++ {
		lo, hi := SINRThresholdDB(rates[i-1]), SINRThresholdDB(rates[i])
		if hi <= lo {
			t.Errorf("threshold(%v)=%.2f not above threshold(%v)=%.2f",
				rates[i], hi, rates[i-1], lo)
		}
	}
}

// TestRxPowerMonotoneDistance: received power never increases with
// distance (property over random distance pairs).
func TestRxPowerMonotoneDistance(t *testing.T) {
	g := DefaultGeometry()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d1 := rng.Float64() * 200
		d2 := d1 + rng.Float64()*200
		if g.RxPowerDBm(d1) < g.RxPowerDBm(d2) {
			t.Fatalf("closer sender weaker: P(%.2f m)=%.2f < P(%.2f m)=%.2f",
				d1, g.RxPowerDBm(d1), d2, g.RxPowerDBm(d2))
		}
	}
}

// TestSINRMonotoneInterferers: adding an interferer never raises SINR
// (property over random interferer sets).
func TestSINRMonotoneInterferers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		sig := -90 + rng.Float64()*60
		n := rng.Intn(6)
		ints := make([]float64, n)
		for j := range ints {
			ints[j] = -100 + rng.Float64()*60
		}
		before := SINRdB(sig, ints, -90.9)
		after := SINRdB(sig, append(ints, -100+rng.Float64()*60), -90.9)
		if after > before {
			t.Fatalf("adding interferer raised SINR: %.4f -> %.4f (set %v)",
				before, after, ints)
		}
	}
}

// TestPowerMatrixSymmetry: the pairwise rx-power matrix is symmetric
// with a zero diagonal, including rows appended by a mid-run Attach.
func TestPowerMatrixSymmetry(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = DefaultGeometry()
	rng := rand.New(rand.NewSource(3))
	radios := make([]*testRadio, 6)
	for i := range radios {
		radios[i] = &testRadio{pos: Pos{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
		m.Attach(radios[i])
	}
	m.ensureSpatial()
	// Mid-run attach: the matrix is extended, old entries preserved.
	late := &testRadio{pos: Pos{X: 33, Y: 44}}
	m.Attach(late)
	m.ensureSpatial()
	n := len(m.powerMW)
	if n != 7 {
		t.Fatalf("matrix order %d, want 7", n)
	}
	for i := 0; i < n; i++ {
		if m.powerMW[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %g, want 0", i, i, m.powerMW[i][i])
		}
		for j := 0; j < n; j++ {
			if m.powerMW[i][j] != m.powerMW[j][i] {
				t.Errorf("asymmetry [%d][%d]=%g vs [%d][%d]=%g",
					i, j, m.powerMW[i][j], j, i, m.powerMW[j][i])
			}
			if i != j && m.powerMW[i][j] <= 0 {
				t.Errorf("off-diagonal [%d][%d] = %g, want > 0", i, j, m.powerMW[i][j])
			}
		}
	}
}

// sinrPerms3 enumerates the six orderings of three interferers.
var sinrPerms3 = [6][3]int{
	{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
}

// FuzzCapture asserts the decode decision is deterministic and
// independent of interferer order: for any signal level and interferer
// triple, every permutation yields the same CaptureOK verdict and the
// bit-identical SINR.
func FuzzCapture(f *testing.F) {
	f.Add(-60.0, -70.0, -75.0, -80.0, byte(1))
	f.Add(-82.0, -82.0, -82.0, -82.0, byte(5))
	f.Add(-50.0, -90.0, -55.0, -120.0, byte(3))
	f.Fuzz(func(t *testing.T, sig, i1, i2, i3 float64, perm byte) {
		for _, v := range []float64{sig, i1, i2, i3} {
			if math.IsNaN(v) || v > 30 || v < -200 {
				t.Skip("outside physical dBm range")
			}
		}
		g := DefaultGeometry()
		ints := []float64{i1, i2, i3}
		base := g.CaptureOK(phy.RateA54, sig, ints)
		baseSINR := SINRdB(sig, ints, g.NoiseDBm)
		p := sinrPerms3[int(perm)%len(sinrPerms3)]
		shuffled := []float64{ints[p[0]], ints[p[1]], ints[p[2]]}
		if got := g.CaptureOK(phy.RateA54, sig, shuffled); got != base {
			t.Fatalf("capture verdict order-dependent: %v vs %v for perm %v of %v",
				got, base, p, ints)
		}
		if got := SINRdB(sig, shuffled, g.NoiseDBm); got != baseSINR {
			t.Fatalf("SINR not bit-identical under permutation: %g vs %g", got, baseSINR)
		}
		if again := g.CaptureOK(phy.RateA54, sig, ints); again != base {
			t.Fatalf("capture verdict not deterministic: %v then %v", base, again)
		}
	})
}
