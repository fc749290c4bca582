package rohc

import (
	"math/rand"
	"testing"

	"tcphack/internal/packet"
)

// TestCRC8TableMatchesBitwise golden-tests the sliced CRC against the
// bitwise RFC 5795 reference: every single byte, and random inputs of
// every length from 0 to 130, so each tail length after the 8-byte
// blocks (and each block count up to 16) is exercised.
func TestCRC8TableMatchesBitwise(t *testing.T) {
	if got, want := crc8(nil), byte(0xff); got != want {
		t.Errorf("crc8(nil) = %#x, want %#x", got, want)
	}
	for b := 0; b < 256; b++ {
		one := []byte{byte(b)}
		if crc8(one) != crc8Bitwise(one) {
			t.Fatalf("crc8([%#x]) = %#x, bitwise %#x", b, crc8(one), crc8Bitwise(one))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 130; n++ {
		buf := make([]byte, n)
		for i := 0; i < 8; i++ {
			rng.Read(buf)
			if got, want := crc8(buf), crc8Bitwise(buf); got != want {
				t.Fatalf("crc8(%x) = %#x, bitwise %#x", buf, got, want)
			}
		}
	}
}

// FuzzCRC8 requires the sliced CRC to match the bitwise reference on
// arbitrary input. The seed corpus lives in testdata/fuzz/FuzzCRC8.
func FuzzCRC8(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0x5a})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := crc8(data), crc8Bitwise(data); got != want {
			t.Fatalf("crc8(%x) = %#x, bitwise %#x", data, got, want)
		}
	})
}

func testAck(seed int64) *packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	return &packet.Packet{
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoTCP, ID: uint16(rng.Intn(1 << 16)),
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(192, 168, 0, 10),
		},
		TCP: &packet.TCP{
			SrcPort: 5001, DstPort: 5001,
			Seq: rng.Uint32(), Ack: rng.Uint32(), Flags: packet.FlagACK,
			Window: uint16(rng.Intn(1 << 16)),
			Opt:    packet.TCPOptions{HasTimestamps: true, TSVal: rng.Uint32(), TSEcr: rng.Uint32()},
		},
	}
}

// TestHotPathAllocFree pins the per-packet ROHC primitives at zero
// allocations — the sliced CRC, the memoized CID lookup and the header
// CRC — and checks the header CRC against the bitwise reference.
func TestHotPathAllocFree(t *testing.T) {
	p := testAck(1)
	wire := p.Marshal()
	if n := testing.AllocsPerRun(200, func() { crc8(wire) }); n != 0 {
		t.Errorf("crc8: %v allocs/op, want 0", n)
	}

	c := NewCompressor()
	tuple := tupleOf(p)
	c.CID(tuple) // warm the memo (one MD5 + map insert)
	if n := testing.AllocsPerRun(200, func() { c.CID(tuple) }); n != 0 {
		t.Errorf("memoized CID: %v allocs/op, want 0", n)
	}
	if c.CID(tuple) != CID(tuple) {
		t.Error("memoized CID disagrees with the MD5 definition")
	}

	if n := testing.AllocsPerRun(200, func() { headerCRC(p) }); n != 0 {
		t.Errorf("headerCRC: %v allocs/op, want 0", n)
	}
	for _, q := range []*packet.Packet{p, testAck(3)} {
		checkHeaderCRC(t, q)
	}
	// The wire image includes the payload's zero bytes, and UDP or
	// bare IP packets have headers of their own shape.
	data := testAck(4)
	data.PayloadLen = 1448
	checkHeaderCRC(t, data)
	checkHeaderCRC(t, &packet.Packet{
		IP:  packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP(1, 2, 3, 4), Dst: packet.IP(5, 6, 7, 8)},
		UDP: &packet.UDP{SrcPort: 9, DstPort: 9}, PayloadLen: 17,
	})
	checkHeaderCRC(t, &packet.Packet{IP: packet.IPv4{TTL: 1, Protocol: 47}, PayloadLen: 3})
}

// checkHeaderCRC requires headerCRC, which builds its image without
// marshalling, to equal the bitwise reference CRC over Marshal's bytes.
func checkHeaderCRC(t *testing.T, p *packet.Packet) {
	t.Helper()
	if got, want := headerCRC(p), crc8Bitwise(p.Marshal()); got != want {
		t.Fatalf("headerCRC(%v) = %#x, crc8Bitwise(Marshal) = %#x", p, got, want)
	}
}

// TestAppendAnchorMatchesAnchor checks the in-place anchor path against
// the allocating reference for fresh, already-anchored, and malformed
// inputs.
func TestAppendAnchorMatchesAnchor(t *testing.T) {
	cases := [][]byte{
		{0x11, 0x23, 0x99, 0xab},       // unanchored
		{0x11, 0x83, 0x07, 0x99, 0xab}, // already anchored (ExtMSN set)
		{0x42},                         // malformed: too short
	}
	for _, data := range cases {
		want := Anchor(append([]byte(nil), data...), 0x55)
		got := AppendAnchor(nil, data, 0x55)
		if string(got) != string(want) {
			t.Errorf("AppendAnchor(%x) = %x, Anchor = %x", data, got, want)
		}
		pre := []byte{0xde, 0xad}
		got = AppendAnchor(pre, data, 0x55)
		if string(got[:2]) != string(pre[:2]) || string(got[2:]) != string(want) {
			t.Errorf("AppendAnchor with prefix = %x, want %x + %x", got, pre, want)
		}
	}
}

// TestCompressDecompressStayInSync exercises the memoized/scratch paths
// end to end: a run of ACKs compressed then decompressed must
// reconstruct bit-identical packets (CRC-validated), exactly as the
// pre-optimization implementation did.
func TestCompressDecompressStayInSync(t *testing.T) {
	comp, dec := NewCompressor(), NewDecompressor()
	p := testAck(2)
	comp.Observe(p)
	dec.Observe(p)
	for i := 0; i < 50; i++ {
		p = p.Clone()
		p.IP.ID++
		p.TCP.Ack += 2920
		p.TCP.Opt.TSVal++
		data, msn, ok := comp.Compress(nil, p)
		if !ok {
			t.Fatalf("ack %d did not compress", i)
		}
		res, err := decompress(dec, Anchor(data, msn))
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if res.Failures != 0 || len(res.Packets) != 1 {
			t.Fatalf("ack %d: %+v", i, res)
		}
		got, want := res.Packets[0].Marshal(), p.Marshal()
		if string(got) != string(want) {
			t.Fatalf("ack %d reconstructed differently:\n got %x\nwant %x", i, got, want)
		}
	}
}
