package rohc

import (
	"encoding/binary"
	"math"
	"testing"

	"tcphack/internal/packet"
)

// pooledPair is pair with the decompressor drawing from pool.
func pooledPair(f *flowGen, pool *packet.Pool) (*Compressor, *Decompressor) {
	c, d := pair(f)
	d.Packets = pool
	return c, d
}

// releaseAll drops the caller's reference on every reconstituted ACK.
func releaseAll(res *Result) {
	for _, p := range res.Packets {
		p.Release()
	}
}

// TestMaxRecordLen: the worst-case IR record — every varint at its
// widest, three SACK blocks — fills MaxRecordLen exactly, and the
// worst-case delta record fits too.
func TestMaxRecordLen(t *testing.T) {
	f := newFlow(true)
	c, _ := pair(f)
	worst := func() *packet.Packet {
		p := f.ackPkt(0)
		p.IP.ID = math.MaxUint16
		p.TCP.Seq, p.TCP.Ack = 0x80000000, math.MaxUint32
		p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr = math.MaxUint32, math.MaxUint32
		for i := 0; i < maxSACK; i++ {
			p.TCP.Opt.AppendSACK(0x7fffffff, 0x7ffffffe) // left-ack and length both ≥ 2^28
		}
		return p
	}
	ir, _, ok := c.Compress(nil, worst())
	if !ok || !IsIR(ir) {
		t.Fatalf("worst-case IR not emitted (ok=%v)", ok)
	}
	if len(ir) != MaxRecordLen {
		t.Errorf("worst-case IR is %d bytes, MaxRecordLen %d", len(ir), MaxRecordLen)
	}
	p := worst()
	p.IP.ID, p.TCP.Ack, p.TCP.Seq = 0x7fff, 0x7fffffff, 0
	p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr = 0x7fffffff, 0x7fffffff
	p.TCP.Window++
	delta, _, ok := c.Compress(nil, p)
	if !ok || IsIR(delta) || len(delta) > MaxRecordLen {
		t.Errorf("worst-case delta: ok=%v ir=%v %d bytes > %d", ok, IsIR(delta), len(delta), MaxRecordLen)
	}
}

// TestPooledCodecAllocFree pins the steady-state codec at zero
// allocations per ACK: Compress appends into a caller buffer, and
// Decompress refills a reused Result with packets from a warm pool.
func TestPooledCodecAllocFree(t *testing.T) {
	var pool packet.Pool
	f := newFlow(true)
	c, d := pooledPair(f, &pool)
	acks := make([]*packet.Packet, 300)
	for i := range acks {
		acks[i] = f.ackPkt(2920)
	}
	buf := make([]byte, 0, MaxRecordLen+1)
	var frame []byte
	var got, want [packet.MaxHeaderLen]byte
	var res Result
	i := 0
	step := func() {
		data, msn, ok := c.Compress(buf[:0], acks[i])
		if !ok {
			t.Fatalf("ack %d did not compress", i)
		}
		frame = AppendAnchor(frame[:0], data, msn)
		if err := d.Decompress(frame, &res); err != nil || len(res.Packets) != 1 {
			t.Fatalf("ack %d: err=%v packets=%d", i, err, len(res.Packets))
		}
		n, m := res.Packets[0].PutHeader(&got), acks[i].PutHeader(&want)
		if string(got[:n]) != string(want[:m]) {
			t.Fatalf("ack %d reconstructed differently", i)
		}
		releaseAll(&res)
		i++
	}
	step() // IR, then warm buffers and pool
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("pooled compress+decompress: %v allocs/ACK, want 0", n)
	}
}

// TestDecompressReleasesRejected: a reconstruction the header CRC
// rejects goes straight back to the pool — it is neither returned nor
// leaked.
func TestDecompressReleasesRejected(t *testing.T) {
	var pool packet.Pool
	f := newFlow(true)
	c, d := pooledPair(f, &pool)
	ir, _ := compress1(c, f.ackPkt(2920))
	var res Result
	if err := d.Decompress(ir, &res); err != nil || len(res.Packets) != 1 {
		t.Fatalf("IR: err=%v packets=%d", err, len(res.Packets))
	}
	kept := res.Packets[0]
	data, _ := compress1(c, f.ackPkt(2920))
	data[len(data)-1] ^= 0xff // corrupt the CRC
	if err := d.Decompress(data, &res); err != nil || res.FailCRC != 1 || len(res.Packets) != 0 {
		t.Fatalf("corrupted delta: err=%v crc failures=%d packets=%d", err, res.FailCRC, len(res.Packets))
	}
	// The rejected reconstruction is the free slot the next Get reuses;
	// the delivered ACK, still held, is not.
	next := pool.Get(packet.ProtoTCP)
	if next == kept {
		t.Fatal("held ACK handed out again")
	}
	if again := pool.Get(packet.ProtoTCP); again == next {
		t.Fatal("pool handed out one slot twice")
	}
	kept.Release()
}

// FuzzDecompress feeds arbitrary frames to a decompressor holding a
// live context. It must never panic, and everything it returns must be
// a well-formed pure ACK drawn from its pool whose header CRC matches
// the bitwise reference over its wire image.
func FuzzDecompress(f *testing.F) {
	fl := newFlow(true)
	c, _ := pair(fl)
	ir, _ := compress1(c, fl.ackPkt(2920))
	delta, _ := compress1(c, fl.ackPkt(2920))
	sack := fl.ackPkt(0)
	sack.TCP.Opt.AppendSACK(sack.TCP.Ack+2920, sack.TCP.Ack+5840)
	withSACK, _ := compress1(c, sack)
	f.Add(ir)
	f.Add(append(append([]byte(nil), delta...), withSACK...))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var pool packet.Pool
		fl := newFlow(true)
		_, d := pooledPair(fl, &pool)
		var res Result
		for pass := 0; pass < 2; pass++ { // a replay exercises dedup
			err := d.Decompress(frame, &res)
			if err == nil && res.Failures+res.Duplicates+len(res.Packets) == 0 && len(frame) > 0 {
				t.Fatalf("frame of %d bytes consumed with no outcome", len(frame))
			}
			for _, p := range res.Packets {
				if !p.IsTCPAck() {
					t.Fatalf("reconstituted a non-ACK: %v", p)
				}
				if _, err := packet.Unmarshal(p.Marshal()); err != nil {
					t.Fatalf("reconstituted ACK does not parse: %v", err)
				}
				checkHeaderCRC(t, p)
			}
			releaseAll(&res)
		}
	})
}

// FuzzCompressRoundTrip compresses two ACKs built from the fuzzed
// fields — the first travels as an IR, the second as a delta against
// it, each with 0 to 3 SACK blocks — and requires the pooled
// reconstruct path to reproduce both headers exactly, and the header
// CRC of every ACK built or rebuilt to match the bitwise reference.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add(uint32(2920), uint32(2920), uint16(1), uint16(1), uint32(1), uint32(1), uint16(8192), int32(0), true, []byte{})
	f.Add(uint32(0), uint32(1460), uint16(2), uint16(7), uint32(0), uint32(40), uint16(512), int32(-3), true,
		[]byte{0, 0, 11, 104, 0, 0, 5, 180, 0, 0, 34, 56, 0, 0, 5, 180})
	f.Add(uint32(math.MaxUint32), uint32(0), uint16(math.MaxUint16), uint16(0), uint32(math.MaxUint32), uint32(0), uint16(0), int32(math.MinInt32), false,
		[]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 1, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, ackD1, ackD2 uint32, ipIDD1, ipIDD2 uint16, tsD1, tsD2 uint32, win uint16, seqD int32, ts bool, sacks []byte) {
		var pool packet.Pool
		fl := newFlow(ts)
		c, d := pooledPair(fl, &pool)
		build := func(ackD uint32, ipIDD uint16, tsD uint32) *packet.Packet {
			p := fl.ackPkt(ackD)
			p.IP.ID += ipIDD
			p.TCP.Window = win
			p.TCP.Seq += uint32(seqD)
			if ts {
				p.TCP.Opt.TSVal += tsD
				p.TCP.Opt.TSEcr -= tsD
			}
			for len(sacks) >= 8 && p.TCP.Opt.NumSACK < maxSACK {
				left := p.TCP.Ack + binary.BigEndian.Uint32(sacks)
				p.TCP.Opt.AppendSACK(left, left+binary.BigEndian.Uint32(sacks[4:]))
				sacks = sacks[8:]
			}
			return p
		}
		var res Result
		for i, p := range []*packet.Packet{build(ackD1, ipIDD1, tsD1), build(ackD2, ipIDD2, tsD2)} {
			checkHeaderCRC(t, p)
			data, ok := compress1(c, p)
			if !ok {
				t.Fatalf("ack %d did not compress", i)
			}
			if IsIR(data) != (i == 0) {
				t.Fatalf("ack %d: IR=%v", i, IsIR(data))
			}
			if err := d.Decompress(data, &res); err != nil || len(res.Packets) != 1 {
				t.Fatalf("ack %d: err=%v packets=%d failures=%d dups=%d", i, err, len(res.Packets), res.Failures, res.Duplicates)
			}
			checkHeaderCRC(t, res.Packets[0])
			if !sameHeader(p, res.Packets[0]) {
				t.Fatalf("ack %d reconstructed differently:\n got %v %+v\nwant %v %+v",
					i, res.Packets[0], res.Packets[0].TCP.Opt, p, p.TCP.Opt)
			}
			releaseAll(&res)
		}
	})
}
