package packet

import (
	"reflect"
	"testing"
)

// TestPoolGetZeroed: a recycled slot comes back fully zeroed — IP
// fields, payload, both headers, the SACK blocks and their count — and
// with only the requested protocol's header attached.
func TestPoolGetZeroed(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoTCP)
	p.IP.ID, p.IP.TTL, p.PayloadLen = 7, 64, 1400
	p.TCP.Seq, p.TCP.Flags = 99, FlagACK
	p.TCP.Opt.HasTimestamps, p.TCP.Opt.TSVal = true, 5
	for i := 0; i < MaxSACKBlocks; i++ {
		p.TCP.Opt.AppendSACK(uint32(i), uint32(i+1))
	}
	p.Release()

	q := pl.Get(ProtoTCP)
	if q != p {
		t.Fatal("released slot was not reused")
	}
	if q.IP != (IPv4{Protocol: ProtoTCP}) || q.PayloadLen != 0 || q.UDP != nil {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
	if !reflect.DeepEqual(*q.TCP, TCP{}) || q.TCP.Opt.NumSACK != 0 || len(q.TCP.Opt.SACKBlocks()) != 0 {
		t.Errorf("recycled TCP header not zeroed: %+v", *q.TCP)
	}
	q.Release()

	u := pl.Get(ProtoUDP)
	if u != p {
		t.Fatal("released slot was not reused")
	}
	if u.TCP != nil || u.UDP == nil || *u.UDP != (UDP{}) || u.IP.Protocol != ProtoUDP {
		t.Errorf("UDP get from a TCP slot: TCP=%v UDP=%+v proto=%d", u.TCP, u.UDP, u.IP.Protocol)
	}
}

// TestPoolDoubleReleasePanics: releasing past the last reference is an
// ownership bug, never silently absorbed.
func TestPoolDoubleReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoTCP)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	p.Release()
}

// TestPoolRetainAfterReleasePanics: a holder cannot resurrect a packet
// that is already back in its pool.
func TestPoolRetainAfterReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoUDP)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain after the last Release did not panic")
		}
	}()
	p.Retain()
}

// TestUnpooledRetainReleaseNoop: packets without a pool — struct
// literals, Unmarshal and Clone results, nil-pool gets — ignore
// Retain and Release and are never recycled.
func TestUnpooledRetainReleaseNoop(t *testing.T) {
	var nilPool *Pool
	lit := tcpAck(1, 2)
	parsed, err := Unmarshal(lit.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	var pl Pool
	pooled := pl.Get(ProtoTCP)
	clone := pooled.Clone()
	pooled.Release()
	for name, p := range map[string]*Packet{
		"nil pool": nilPool.Get(ProtoTCP),
		"literal":  lit,
		"parsed":   parsed,
		"clone":    clone,
	} {
		p.Retain()
		p.Release()
		p.Release()
		p.Release() // would panic if counted
		if p.home != nil {
			t.Errorf("%s: packet belongs to a pool", name)
		}
	}
	if got := pl.Get(ProtoTCP); got == clone {
		t.Error("a clone entered the pool")
	}
}

// TestPoolLiveReferenceNotReused: a packet some holder still retains is
// never handed out again; it is once the last holder releases.
func TestPoolLiveReferenceNotReused(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoTCP)
	p.Retain()  // a second holder
	p.Release() // the creator lets go
	q := pl.Get(ProtoTCP)
	if q == p {
		t.Fatal("packet with a live reference handed out again")
	}
	p.Release() // the last holder lets go
	if r := pl.Get(ProtoUDP); r != p {
		t.Error("fully released packet was not recycled")
	}
}

// TestTCPOptionsCopyDoesNotAlias: the SACK blocks are an array, so a
// value copy of the options (or of a whole header) shares nothing.
func TestTCPOptionsCopyDoesNotAlias(t *testing.T) {
	var o TCPOptions
	o.AppendSACK(10, 20)
	c := o
	c.SACK[0][0] = 77
	c.AppendSACK(30, 40)
	if o.SACK[0][0] != 10 || o.NumSACK != 1 {
		t.Errorf("copy aliases the original: %+v", o)
	}
	if len(c.SACKBlocks()) != 2 || c.SACKBlocks()[1] != [2]uint32{30, 40} {
		t.Errorf("copy blocks %v", c.SACKBlocks())
	}
}

// TestAppendSACKBound: the fifth block does not fit a TCP header.
func TestAppendSACKBound(t *testing.T) {
	var o TCPOptions
	for i := 0; i < MaxSACKBlocks; i++ {
		if !o.AppendSACK(uint32(i), uint32(i+1)) {
			t.Fatalf("block %d rejected", i)
		}
	}
	if o.AppendSACK(9, 10) || o.NumSACK != MaxSACKBlocks {
		t.Errorf("fifth block accepted: %d blocks", o.NumSACK)
	}
}

// TestPoolSteadyStateAllocFree: once a slot is free, Get and Release
// cycle without allocating.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	var pl Pool
	pl.Get(ProtoTCP).Release()
	if n := testing.AllocsPerRun(200, func() {
		p := pl.Get(ProtoTCP)
		p.TCP.Opt.AppendSACK(1, 2)
		p.Retain()
		p.Release()
		p.Release()
	}); n != 0 {
		t.Errorf("Get/Release allocated %.1f times per cycle, want 0", n)
	}
}
