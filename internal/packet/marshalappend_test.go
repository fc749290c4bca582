package packet

import (
	"bytes"
	"testing"
)

func marshalCases() []*Packet {
	return []*Packet{
		{
			IP:  IPv4{TTL: 64, Protocol: ProtoTCP, ID: 7, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2)},
			TCP: &TCP{SrcPort: 5001, DstPort: 80, Seq: 100, Ack: 200, Flags: FlagACK, Window: 512},
		},
		{
			IP: IPv4{TTL: 64, Protocol: ProtoTCP, ID: 9, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2)},
			TCP: &TCP{
				SrcPort: 5001, DstPort: 80, Seq: 1, Flags: FlagSYN, Window: 0xffff,
				Opt: TCPOptions{
					MSS: 1460, WindowScale: 8, SACKPermitted: true,
					HasTimestamps: true, TSVal: 123, TSEcr: 456,
				},
			},
		},
		{
			IP: IPv4{TTL: 64, Protocol: ProtoTCP, ID: 11, Src: IP(10, 0, 0, 2), Dst: IP(10, 0, 0, 1)},
			TCP: &TCP{
				SrcPort: 80, DstPort: 5001, Seq: 5, Ack: 1000, Flags: FlagACK, Window: 512,
				Opt: TCPOptions{
					HasTimestamps: true, TSVal: 9, TSEcr: 8,
					SACK:    [MaxSACKBlocks][2]uint32{{2000, 3000}, {4000, 5000}},
					NumSACK: 2,
				},
			},
			PayloadLen: 0,
		},
		{
			IP:         IPv4{TTL: 64, Protocol: ProtoUDP, ID: 3, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 3)},
			UDP:        &UDP{SrcPort: 9, DstPort: 9},
			PayloadLen: 1400,
		},
	}
}

// TestMarshalAppendMatchesMarshal: the append path must produce
// Marshal's exact bytes — fresh, appended after a prefix, and reusing
// a dirty scratch buffer (stale bytes must not leak into the image).
func TestMarshalAppendMatchesMarshal(t *testing.T) {
	for i, p := range marshalCases() {
		want := p.Marshal()
		if got := p.MarshalAppend(nil); !bytes.Equal(got, want) {
			t.Errorf("case %d: MarshalAppend(nil) differs\n got %x\nwant %x", i, got, want)
		}
		pre := []byte{1, 2, 3}
		got := p.MarshalAppend(pre)
		if !bytes.Equal(got[:3], pre) || !bytes.Equal(got[3:], want) {
			t.Errorf("case %d: MarshalAppend(prefix) differs", i)
		}
		// Dirty scratch reuse: fill with 0xff, then re-marshal over it.
		scratch := make([]byte, 0, len(want)+64)
		scratch = scratch[:cap(scratch)]
		for j := range scratch {
			scratch[j] = 0xff
		}
		scratch = scratch[:0]
		if got := p.MarshalAppend(scratch); !bytes.Equal(got, want) {
			t.Errorf("case %d: MarshalAppend(dirty scratch) differs\n got %x\nwant %x", i, got, want)
		}
		// Round-trip through the validating parser for good measure.
		if _, err := Unmarshal(p.MarshalAppend(nil)); err != nil {
			t.Errorf("case %d: Unmarshal(MarshalAppend): %v", i, err)
		}
	}
}

// TestMarshalAppendAllocFree pins the warm-buffer append path at zero
// allocations per op — the property the ROHC header CRC relies on.
func TestMarshalAppendAllocFree(t *testing.T) {
	p := marshalCases()[2] // timestamps + SACK: the largest ACK shape
	var scratch []byte
	scratch = p.MarshalAppend(scratch[:0])
	if n := testing.AllocsPerRun(200, func() {
		scratch = p.MarshalAppend(scratch[:0])
	}); n != 0 {
		t.Errorf("MarshalAppend (warm): %v allocs/op, want 0", n)
	}
}
