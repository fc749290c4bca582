package mac

import (
	"math/bits"

	"tcphack/internal/sim"
)

// reorderTimeout bounds how long the Block ACK recipient holds
// out-of-order MSDUs after the last reception from the peer. Holes
// persist only when the originator drops an MPDU at its retry limit,
// so the timer must comfortably exceed one full retry cycle (a 64 KB
// A-MPDU at 150 Mbps lasts ~3.5 ms, and several retries may be
// needed); flushing early would discard retransmissions that are
// still on their way. Commodity receivers use reorder-release
// timeouts of tens to hundreds of milliseconds.
const reorderTimeout = 20 * sim.Millisecond

// baSlot is the reorder-ring slot of a sequence number. The sequence
// space (4096) is a multiple of the window (64), so the slot is stable
// across the 4095→0 wrap.
func baSlot(seq uint16) int { return int(seq) & (baWindowSize - 1) }

// baRecipient is the receive side of a Block ACK agreement with one
// peer: the scoreboard that answers Block ACKs and the reorder buffer
// that restores in-sequence delivery.
//
// Every buffered MSDU lies inside the 64-sequence window at winStart,
// so the buffer is a ring of 64 slots indexed by sequence number, and
// bit i of mask marks winStart+i as buffered — which is exactly the
// compressed Block ACK bitmap.
type baRecipient struct {
	st         *Station
	peer       Addr
	started    bool
	winStart   uint16
	mask       uint64
	buf        [baWindowSize]*MSDU
	flushTimer *sim.Timer // persistent inactivity timer
}

func newBARecipient(st *Station, peer Addr) *baRecipient {
	r := &baRecipient{st: st, peer: peer}
	r.flushTimer = sim.NewTimer(r.flush)
	return r
}

// receive processes one decoded MPDU. It returns false for duplicates.
func (r *baRecipient) receive(m *MPDU) bool {
	if !r.started {
		r.started = true
		r.winStart = m.Seq
	}
	if seqLT(m.Seq, r.winStart) {
		return false // old duplicate; implicitly acknowledged
	}
	d := seqDiff(m.Seq, r.winStart)
	if d >= baWindowSize {
		// A sequence number beyond the window forces the window
		// forward (802.11-2012 §9.21.7.6.2).
		r.advanceTo(seqAdd(m.Seq, -(baWindowSize - 1)))
		d = seqDiff(m.Seq, r.winStart)
	} else if r.mask&(1<<uint(d)) != 0 {
		return false
	}
	r.buf[baSlot(m.Seq)] = m.MSDU
	r.mask |= 1 << uint(d)
	m.MSDU.retain() // the sender may resolve (and recycle) it first
	r.deliverInOrder()
	r.armFlush()
	return true
}

// take empties winStart's slot and slides the window by one, returning
// what the slot held (nil for a hole).
func (r *baRecipient) take() *MSDU {
	s := baSlot(r.winStart)
	msdu := r.buf[s]
	r.buf[s] = nil
	r.mask >>= 1
	r.winStart = seqNext(r.winStart)
	return msdu
}

// deliverInOrder releases the contiguous run at winStart.
func (r *baRecipient) deliverInOrder() {
	for r.mask&1 != 0 {
		msdu := r.take()
		r.st.deliverUp(msdu)
		msdu.release()
	}
}

// advanceTo moves the window start to seq, releasing everything below
// it in sequence order (holes are abandoned — the originator dropped
// or moved past them).
func (r *baRecipient) advanceTo(seq uint16) {
	if !r.started {
		r.started = true
		r.winStart = seq
		return
	}
	for r.winStart != seq {
		if r.mask == 0 {
			r.winStart = seq // nothing left to release on the way
			break
		}
		if msdu := r.take(); msdu != nil {
			r.st.deliverUp(msdu)
			msdu.release()
		}
	}
	r.deliverInOrder()
	r.armFlush()
}

// bitmap builds the compressed Block ACK response: origin and 64 bits.
func (r *baRecipient) bitmap() (start uint16, bits uint64) {
	return r.winStart, r.mask
}

// armFlush (re)starts the hole-recovery timer. It is called on every
// reception, so the timer measures inactivity: it fires only after the
// peer has gone reorderTimeout without delivering anything new, by
// which point pending retransmissions have either arrived or expired
// at the originator's retry limit.
func (r *baRecipient) armFlush() {
	r.st.sched.Cancel(r.flushTimer)
	if r.mask == 0 {
		return
	}
	r.st.sched.Reset(r.flushTimer, r.st.sched.Now()+reorderTimeout)
}

// flush abandons all holes: delivers every buffered MSDU in sequence
// order and advances the window past the highest one.
func (r *baRecipient) flush() {
	if r.mask == 0 {
		return
	}
	r.advanceTo(seqAdd(r.winStart, bits.Len64(r.mask)))
}
