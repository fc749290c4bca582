package mac

import (
	"fmt"
	"math/rand"
	"testing"

	"tcphack/internal/sim"
)

// mapBARecipient is the Block ACK recipient as it was first written,
// with the reorder buffer in a map keyed by sequence number. It is the
// oracle the 64-slot ring is differentially tested against; the
// inactivity timer is left out (the programs below call flush
// directly).
type mapBARecipient struct {
	deliver  func(*MSDU)
	started  bool
	winStart uint16
	buf      map[uint16]*MSDU
}

func (r *mapBARecipient) receive(m *MPDU) bool {
	if !r.started {
		r.started = true
		r.winStart = m.Seq
	}
	if seqLT(m.Seq, r.winStart) {
		return false
	}
	if _, dup := r.buf[m.Seq]; dup {
		return false
	}
	if d := seqDiff(m.Seq, r.winStart); d >= baWindowSize {
		r.advanceTo(seqAdd(m.Seq, -(baWindowSize - 1)))
	}
	r.buf[m.Seq] = m.MSDU
	r.deliverInOrder()
	return true
}

func (r *mapBARecipient) deliverInOrder() {
	for {
		msdu, ok := r.buf[r.winStart]
		if !ok {
			return
		}
		delete(r.buf, r.winStart)
		r.winStart = seqNext(r.winStart)
		r.deliver(msdu)
	}
}

func (r *mapBARecipient) advanceTo(seq uint16) {
	if !r.started {
		r.started = true
		r.winStart = seq
		return
	}
	for r.winStart != seq {
		if msdu, ok := r.buf[r.winStart]; ok {
			delete(r.buf, r.winStart)
			r.deliver(msdu)
		}
		r.winStart = seqNext(r.winStart)
	}
	r.deliverInOrder()
}

func (r *mapBARecipient) bitmap() (start uint16, bits uint64) {
	start = r.winStart
	for i := 0; i < baWindowSize; i++ {
		if _, ok := r.buf[seqAdd(start, i)]; ok {
			bits |= 1 << uint(i)
		}
	}
	return start, bits
}

func (r *mapBARecipient) flush() {
	if len(r.buf) == 0 {
		return
	}
	maxD := 0
	for s := range r.buf {
		if d := seqDiff(s, r.winStart); d > maxD {
			maxD = d
		}
	}
	r.advanceTo(seqAdd(r.winStart, maxD+1))
}

// baProgram runs one program of recipient operations against the ring
// and the map oracle in lockstep and reports the first divergence.
// Each operation is three bytes: a kind and a 16-bit operand.
//
//	0  receive operand mod 4096 (anywhere in the sequence space)
//	1  receive winStart + operand mod 80 (in or just past the window)
//	2  re-receive the last received sequence number (a duplicate)
//	3  receive winStart - 1 - operand mod 100 (an old duplicate)
//	4  advanceTo(winStart + operand mod 130), as a BAR does
//	5  advanceTo(operand mod 4096), forwards or backwards
//	6  flush (the reorder timeout)
//
// Every received MSDU is a fresh object tagged with its operation
// index and sequence number; after every operation both sides must
// have delivered the same tags in the same order and must answer
// bitmap() identically.
func baProgram(prog []byte) error {
	e := newEnv(1, nil)
	st := e.station(Config{Addr: 1})
	var gotRing, gotMap []sim.Time
	st.Deliver = func(m *MSDU) { gotRing = append(gotRing, m.EnqueuedAt) }
	ring := newBARecipient(st, 2)
	oracle := &mapBARecipient{
		deliver: func(m *MSDU) { gotMap = append(gotMap, m.EnqueuedAt) },
		buf:     map[uint16]*MSDU{},
	}
	var last uint16
	for op := 0; op+3 <= len(prog); op += 3 {
		kind, v := prog[op]%7, int(prog[op+1])<<8|int(prog[op+2])
		recv := func(seq uint16) error {
			last = seq
			tag := sim.Time(op)<<12 | sim.Time(seq)
			okRing := ring.receive(&MPDU{Seq: seq, MSDU: &MSDU{EnqueuedAt: tag}})
			okMap := oracle.receive(&MPDU{Seq: seq, MSDU: &MSDU{EnqueuedAt: tag}})
			if okRing != okMap {
				return fmt.Errorf("receive(%d) accepted: ring %v, map %v", seq, okRing, okMap)
			}
			return nil
		}
		var err error
		switch kind {
		case 0:
			err = recv(uint16(v % seqModulus))
		case 1:
			err = recv(seqAdd(oracle.winStart, v%80))
		case 2:
			err = recv(last)
		case 3:
			err = recv(seqAdd(oracle.winStart, -1-v%100))
		case 4:
			to := seqAdd(oracle.winStart, v%130)
			ring.advanceTo(to)
			oracle.advanceTo(to)
		case 5:
			ring.advanceTo(uint16(v % seqModulus))
			oracle.advanceTo(uint16(v % seqModulus))
		case 6:
			ring.flush()
			oracle.flush()
		}
		if err != nil {
			return fmt.Errorf("op %d: %v", op/3, err)
		}
		if ring.started != oracle.started {
			return fmt.Errorf("op %d (kind %d): started ring %v, map %v", op/3, kind, ring.started, oracle.started)
		}
		rs, rb := ring.bitmap()
		ms, mb := oracle.bitmap()
		if rs != ms || rb != mb {
			return fmt.Errorf("op %d (kind %d): bitmap ring (%d, %#x), map (%d, %#x)", op/3, kind, rs, rb, ms, mb)
		}
		if len(gotRing) != len(gotMap) {
			return fmt.Errorf("op %d (kind %d): ring delivered %d, map %d", op/3, kind, len(gotRing), len(gotMap))
		}
		for i := range gotRing {
			if gotRing[i] != gotMap[i] {
				return fmt.Errorf("op %d (kind %d): delivery %d is tag %#x on the ring, %#x on the map",
					op/3, kind, i, gotRing[i], gotMap[i])
			}
		}
	}
	return nil
}

// TestBARecipientMatchesMapOracle runs random programs weighted toward
// in-window traffic, each starting just below the 4095→0 wrap, so the
// window crosses it repeatedly.
func TestBARecipientMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := 4096 - 1 - rng.Intn(100)
		prog := []byte{0, byte(start >> 8), byte(start)}
		for i := 0; i < 400; i++ {
			kind := byte(1) // mostly in-window receptions
			switch r := rng.Intn(20); {
			case r == 0:
				kind = 0
			case r < 3:
				kind = 2
			case r < 5:
				kind = 3
			case r < 7:
				kind = 4
			case r == 7:
				kind = 5
			case r == 8:
				kind = 6
			}
			v := rng.Intn(1 << 16)
			if kind == 1 {
				v = rng.Intn(70) // holes, but mostly inside the window
			}
			prog = append(prog, kind, byte(v>>8), byte(v))
		}
		if err := baProgram(prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzBARecipient checks the same lockstep property on arbitrary
// programs (see baProgram for the encoding).
func FuzzBARecipient(f *testing.F) {
	f.Add([]byte{0, 0x0f, 0xf0, 1, 0, 5, 1, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*2000 {
			prog = prog[:3*2000]
		}
		if err := baProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBARecipientBitmapWindow pins the ring's bitmap directly: bit i
// is winStart+i, across the wrap.
func TestBARecipientBitmapWindow(t *testing.T) {
	e := newEnv(1, nil)
	st := e.station(Config{Addr: 1})
	r := newBARecipient(st, 2)
	r.advanceTo(4094)
	for _, s := range []uint16{4095, 1, 61} { // 4094 stays a hole
		r.receive(&MPDU{Seq: s, MSDU: &MSDU{}})
	}
	start, bits := r.bitmap()
	if want := uint64(1)<<1 | 1<<3 | 1<<63; start != 4094 || bits != want {
		t.Errorf("bitmap = (%d, %#x), want (4094, %#x)", start, bits, want)
	}
}
