package main

import (
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// counter is a trace.Tracer that counts probes and keeps no events.
// One counter serves one grid point, whose probes all arrive on one
// goroutine, so it needs no locking.
type counter struct {
	probes uint64 // every probe call, of any kind

	tx             uint64 // TxStart: transmissions entering the medium
	txEnded        uint64 // TxEnd
	txCollided     uint64 // TxEnd with collided set
	nativeAckMPDUs uint64 // MPDUs of frames that carry only TCP ACKs
	collisions     uint64 // Collision: overlapping pairs
	rxFrames       uint64 // RxFrame
	nav            uint64 // NAV updates
	baWindows      uint64 // BAWindow advertisements

	mpdus     uint64 // MPDUFate: MPDU transmission attempts
	delivered uint64 // ... acknowledged
	retries   uint64 // ... re-queued for another attempt
	expired   uint64 // ... dropped after the retry budget

	hackTransitions uint64 // HackState
	resyncs         uint64 // HackState into Resyncing

	rohcPackets    uint64 // ROHCPacket: compressed ACKs produced
	rohcIR         uint64 // ... in the self-contained IR form
	rohcBytes      uint64 // ... encoded bytes
	decompFailures uint64 // ROHCResult failures

	tcpRetransmits uint64
	tcpRTOs        uint64
	tcpCwnd        uint64
}

var _ trace.Tracer = (*counter)(nil)

func (c *counter) TxStart(_ sim.Time, _ uint64, _, _ uint16, class trace.FrameClass,
	_, _, mpdus, _ int, _ sim.Time, _ sim.Duration) {
	c.probes++
	c.tx++
	if class == trace.ClassTCPAck {
		c.nativeAckMPDUs += uint64(mpdus)
	}
}

func (c *counter) TxEnd(_ sim.Time, _ uint64, collided bool) {
	c.probes++
	c.txEnded++
	if collided {
		c.txCollided++
	}
}

func (c *counter) Collision(sim.Time, uint64, uint64) {
	c.probes++
	c.collisions++
}

func (c *counter) RxFrame(sim.Time, uint16, uint16, int, int) {
	c.probes++
	c.rxFrames++
}

func (c *counter) NAV(sim.Time, uint16, sim.Time) {
	c.probes++
	c.nav++
}

func (c *counter) BAWindow(sim.Time, uint16, uint16, uint16, uint64) {
	c.probes++
	c.baWindows++
}

func (c *counter) MPDUFate(_ sim.Time, _, _, _ uint16, _ int, fate trace.Fate) {
	c.probes++
	c.mpdus++
	switch fate {
	case trace.FateDelivered:
		c.delivered++
	case trace.FateRetry:
		c.retries++
	case trace.FateExpired:
		c.expired++
	}
}

func (c *counter) HackState(_ sim.Time, _, _ uint16, _, to trace.DriverState, _ trace.Cause) {
	c.probes++
	c.hackTransitions++
	if to == trace.StateResyncing {
		c.resyncs++
	}
}

func (c *counter) ROHCPacket(_ sim.Time, _ uint16, ir bool, bytes int) {
	c.probes++
	c.rohcPackets++
	c.rohcBytes += uint64(bytes)
	if ir {
		c.rohcIR++
	}
}

func (c *counter) ROHCResult(_ sim.Time, _ uint16, _, _, failures int) {
	c.probes++
	c.decompFailures += uint64(failures)
}

func (c *counter) TCPRetransmit(sim.Time, uint16, uint32) {
	c.probes++
	c.tcpRetransmits++
}

func (c *counter) TCPRTO(sim.Time, uint16, sim.Duration) {
	c.probes++
	c.tcpRTOs++
}

func (c *counter) TCPCwnd(sim.Time, uint16, int, int) {
	c.probes++
	c.tcpCwnd++
}

// add accumulates o into c.
func (c *counter) add(o counter) {
	c.probes += o.probes
	c.tx += o.tx
	c.txEnded += o.txEnded
	c.txCollided += o.txCollided
	c.nativeAckMPDUs += o.nativeAckMPDUs
	c.collisions += o.collisions
	c.rxFrames += o.rxFrames
	c.nav += o.nav
	c.baWindows += o.baWindows
	c.mpdus += o.mpdus
	c.delivered += o.delivered
	c.retries += o.retries
	c.expired += o.expired
	c.hackTransitions += o.hackTransitions
	c.resyncs += o.resyncs
	c.rohcPackets += o.rohcPackets
	c.rohcIR += o.rohcIR
	c.rohcBytes += o.rohcBytes
	c.decompFailures += o.decompFailures
	c.tcpRetransmits += o.tcpRetransmits
	c.tcpRTOs += o.tcpRTOs
	c.tcpCwnd += o.tcpCwnd
}
