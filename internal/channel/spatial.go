package channel

import (
	"math"
	"sort"
	"sync"

	"tcphack/internal/phy"
)

// Geometry configures the spatial PHY regime (see doc.go): log-distance
// path loss, per-receiver carrier sensing, and SINR capture. A Geometry
// is read-only once in use — one instance may be shared by many
// concurrently running media (campaign workers).
type Geometry struct {
	// TxPowerDBm is the transmit power of every radio (default 16 dBm).
	TxPowerDBm float64
	// RefLossDB is path loss at 1 m (≈46.7 dB at 2.4 GHz free space).
	RefLossDB float64
	// Exponent is the path-loss exponent (3.0 ≈ indoor office).
	Exponent float64
	// NoiseDBm is the receiver noise floor (≈ -90.9 dBm for 40 MHz with
	// a 7 dB noise figure).
	NoiseDBm float64
	// CSThresholdDBm is the energy-detect carrier-sense threshold: a
	// radio reports busy while the summed received power of in-flight
	// transmissions is at or above it. -Inf makes every radio sense
	// every transmission (one global busy state).
	CSThresholdDBm float64
	// DeliveryFloorDBm is the weakest received power at which a frame
	// is still handed to a receiver at all. Below it there is no EndRx:
	// no NAV, no EIFS, no promiscuous copy. -Inf delivers everywhere.
	DeliveryFloorDBm float64
	// CaptureMarginDB is added to the rate's SINR decode threshold when
	// a frame suffered overlap. 0 models ideal capture; +Inf disables
	// capture entirely (any overlap collides).
	CaptureMarginDB float64
}

// DefaultGeometry returns the spatial PHY matching the paper's indoor
// 40 MHz 802.11n setup (the same constants as DefaultSNRModel) with an
// 802.11-style -82 dBm carrier-sense threshold and delivery floor and
// ideal capture. Sense/delivery range works out to ≈51.5 m.
func DefaultGeometry() *Geometry {
	return &Geometry{
		TxPowerDBm:       16,
		RefLossDB:        46.7,
		Exponent:         3.0,
		NoiseDBm:         -90.9,
		CSThresholdDBm:   -82,
		DeliveryFloorDBm: -82,
		CaptureMarginDB:  0,
	}
}

// DegenerateGeometry returns the single collision domain of the paper's
// testbed, whatever the radio positions: every radio senses every
// transmission (CS threshold -Inf), every frame reaches every radio
// (delivery floor -Inf), and capture never succeeds (margin +Inf), so
// any overlap collides everywhere. A nil Medium.Geometry means this
// geometry.
func DegenerateGeometry() *Geometry {
	g := DefaultGeometry()
	g.CSThresholdDBm = math.Inf(-1)
	g.DeliveryFloorDBm = math.Inf(-1)
	g.CaptureMarginDB = math.Inf(1)
	return g
}

// completeGraph reports whether g makes the medium one collision
// domain regardless of radio positions: every radio senses and
// receives every transmission, and any overlap collides.
func (g *Geometry) completeGraph() bool {
	return math.IsInf(g.CSThresholdDBm, -1) && math.IsInf(g.DeliveryFloorDBm, -1) &&
		math.IsInf(g.CaptureMarginDB, 1)
}

// RxPowerDBm returns the received power at distance metres under the
// geometry's log-distance path-loss model. Distances under 1 m clamp
// to the 1 m reference point.
func (g *Geometry) RxPowerDBm(distance float64) float64 {
	if distance < 1 {
		distance = 1
	}
	return g.TxPowerDBm - g.RefLossDB - 10*g.Exponent*math.Log10(distance)
}

// CaptureOK reports whether a frame at rate received at signalDBm
// decodes despite the given concurrent interferers: its SINR must
// clear SINRThresholdDB(rate) plus the capture margin. With no
// interferers the frame always decodes (noise corruption is the error
// model's job, drawn separately). The decision is deterministic and
// independent of interferer order.
func (g *Geometry) CaptureOK(rate phy.Rate, signalDBm float64, interferersDBm []float64) bool {
	if len(interferersDBm) == 0 {
		return true
	}
	return SINRdB(signalDBm, interferersDBm, g.NoiseDBm) >= SINRThresholdDB(rate)+g.CaptureMarginDB
}

// SINRdB returns the signal-to-interference-plus-noise ratio in dB for
// a signal received at signalDBm over the given interferer powers and
// noise floor. Summation is performed in a canonical order, so the
// result is bit-identical under any permutation of interferersDBm.
func SINRdB(signalDBm float64, interferersDBm []float64, noiseDBm float64) float64 {
	terms := make([]float64, 0, len(interferersDBm)+1)
	terms = append(terms, phy.DBmToMilliwatts(noiseDBm))
	for _, p := range interferersDBm {
		terms = append(terms, phy.DBmToMilliwatts(p))
	}
	// Descending canonical order: float addition is commutative but not
	// associative, so a fixed order is what makes the decode decision
	// permutation-independent (FuzzCapture pins this).
	sort.Sort(sort.Reverse(sort.Float64Slice(terms)))
	denom := 0.0
	for _, t := range terms {
		denom += t
	}
	sig := phy.DBmToMilliwatts(signalDBm)
	if denom == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/denom)
}

// sinrThresholds caches SINRThresholdDB per rate; phy.Rate is a
// comparable struct, so it keys the map directly.
var sinrThresholds sync.Map

// SINRThresholdDB returns the decode threshold for rate: the lowest
// SINR (dB) at which a 1460-byte frame's FrameErrorRate is at most
// 10%. It reuses the SNR model's SNR→FER tables, so the capture
// model and the noise model share one waterfall per rate.
func SINRThresholdDB(rate phy.Rate) float64 {
	if v, ok := sinrThresholds.Load(rate); ok {
		return v.(float64)
	}
	const frameLen = 1460
	lo, hi := -10.0, 60.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if FrameErrorRate(rate, mid, frameLen) <= 0.1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	sinrThresholds.Store(rate, hi)
	return hi
}

// rxNone marks a receiver that gets no EndRx for a transmission
// (below the delivery floor, or the source itself).
const rxNone Outcome = -1

// ensureSpatial (idempotently) extends the per-radio state to cover
// all attached radios: index map, symmetric power matrix, carrier
// state, and linear-domain thresholds. Radios attached after the first
// Transmit get rows appended; existing indices never move.
func (m *Medium) ensureSpatial() {
	n := len(m.radios)
	if len(m.powerMW) == n {
		return
	}
	if m.radioIdx == nil {
		m.radioIdx = make(map[Radio]int, n)
	}
	g := m.Geometry
	if g == nil {
		g = DegenerateGeometry()
	}
	old := len(m.powerMW)
	for i := old; i < n; i++ {
		m.radioIdx[m.radios[i]] = i
		m.txOwn = append(m.txOwn, 0)
		m.senseBusy = append(m.senseBusy, false)
		m.senseMW = append(m.senseMW, 0)
	}
	mat := make([][]float64, n)
	if g.completeGraph() {
		// Carrier sense and delivery thresholds are 0 mW and capture
		// never succeeds, so the only power test left is whether the
		// interference at a receiver is above zero: every row aliases
		// one shared row of ones, and no path loss is computed.
		ones := make([]float64, n)
		for j := range ones {
			ones[j] = 1
		}
		for i := range mat {
			mat[i] = ones
		}
	} else {
		buf := make([]float64, n*n)
		for i := range mat {
			mat[i] = buf[i*n : (i+1)*n]
		}
		for i := 0; i < old; i++ {
			copy(mat[i], m.powerMW[i])
		}
		for i := 0; i < n; i++ {
			pi := m.radios[i].Position()
			lo := i + 1
			if lo < old {
				lo = old
			}
			for j := lo; j < n; j++ {
				p := phy.DBmToMilliwatts(g.RxPowerDBm(pi.DistanceTo(m.radios[j].Position())))
				mat[i][j] = p
				mat[j][i] = p
			}
		}
	}
	m.powerMW = mat
	// Radios attached mid-transmission start sensing the power already
	// on the air.
	for i := old; i < n; i++ {
		for _, o := range m.activeList {
			m.senseMW[i] += mat[o.srcIdx][i]
		}
	}
	m.noiseMW = phy.DBmToMilliwatts(g.NoiseDBm)
	m.csMW = phy.DBmToMilliwatts(g.CSThresholdDBm)
	m.floorMW = phy.DBmToMilliwatts(g.DeliveryFloorDBm)
	m.marginDB = g.CaptureMarginDB
	m.scratchSum = make([]float64, n)
	m.scratchOut = make([]Outcome, n)
}

// interfBuf returns a zeroed interference-maximum buffer of length n,
// reusing retired buffers so steady-state transmission is alloc-free.
func (m *Medium) interfBuf(n int) []float64 {
	if k := len(m.interfFree); k > 0 {
		b := m.interfFree[k-1]
		m.interfFree = m.interfFree[:k-1]
		if cap(b) >= n {
			b = b[:n]
			for i := range b {
				b[i] = 0
			}
			return b
		}
	}
	return make([]float64, n)
}

// updateCarrier re-reads each radio's sensed-energy state (the senseMW
// sums maintained by Transmit and finish) and emits
// CarrierBusy/CarrierIdle edges for radios whose state changed, in
// attach order. A radio is busy while it is transmitting or while the
// summed power of transmissions on the air reaches the carrier-sense
// threshold. Transmissions past their End but not yet finished still
// count — they are on the air until their finish event runs, which
// keeps idle edges strictly after deliveries.
func (m *Medium) updateCarrier() {
	onAir := len(m.activeList) > 0
	cs, own, sense, state := m.csMW, m.txOwn, m.senseMW, m.senseBusy
	for j, r := range m.radios {
		busy := own[j] > 0 || (onAir && sense[j] >= cs)
		if busy != state[j] {
			state[j] = busy
			if busy {
				r.CarrierBusy()
			} else {
				r.CarrierIdle()
			}
		}
	}
}
