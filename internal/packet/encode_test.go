package packet

import (
	"bytes"
	"encoding/binary"
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

// TestPutHeaderAllocFree pins the header encoder at zero allocations
// per op — the property the ROHC header CRC relies on.
func TestPutHeaderAllocFree(t *testing.T) {
	p := marshalCases()[2] // timestamps + SACK: the largest ACK shape
	var hdr [MaxHeaderLen]byte
	if n := testing.AllocsPerRun(200, func() { p.PutHeader(&hdr) }); n != 0 {
		t.Errorf("PutHeader: %v allocs/op, want 0", n)
	}
}

// referenceMarshal is an independent encoder: it writes the fields
// into a zeroed image, then checksums the written bytes (IPv4 header,
// pseudo-header plus segment). The package's encoder, which folds the
// checksums from the fields, must agree byte for byte — ROHC's header
// CRC covers these bytes.
func referenceMarshal(p *Packet) []byte {
	b := make([]byte, p.Len())
	ip := &p.IP
	b[0] = 0x45
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(p.Len()))
	binary.BigEndian.PutUint16(b[4:], ip.ID)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:IPv4HeaderLen]))
	seg := b[IPv4HeaderLen:]
	switch {
	case p.TCP != nil:
		t := p.TCP
		binary.BigEndian.PutUint16(seg[0:], t.SrcPort)
		binary.BigEndian.PutUint16(seg[2:], t.DstPort)
		binary.BigEndian.PutUint32(seg[4:], t.Seq)
		binary.BigEndian.PutUint32(seg[8:], t.Ack)
		optLen := t.Opt.wireLen()
		seg[12] = byte((TCPHeaderLen+optLen)/4) << 4
		seg[13] = t.Flags
		binary.BigEndian.PutUint16(seg[14:], t.Window)
		binary.BigEndian.PutUint16(seg[18:], t.Urgent)
		t.Opt.marshal(seg[TCPHeaderLen : TCPHeaderLen+optLen])
		binary.BigEndian.PutUint16(seg[16:], pseudoChecksum(ip, ProtoTCP, seg))
	case p.UDP != nil:
		u := p.UDP
		binary.BigEndian.PutUint16(seg[0:], u.SrcPort)
		binary.BigEndian.PutUint16(seg[2:], u.DstPort)
		binary.BigEndian.PutUint16(seg[4:], uint16(UDPHeaderLen+p.PayloadLen))
		binary.BigEndian.PutUint16(seg[6:], pseudoChecksum(ip, ProtoUDP, seg))
	}
	return b
}

// checkEncoders requires Marshal, and PutHeader over a dirty array,
// to write referenceMarshal's bytes.
func checkEncoders(t *testing.T, p *Packet) {
	t.Helper()
	want := referenceMarshal(p)
	if got := p.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("Marshal differs from the reference encoder\n got %x\nwant %x", got, want)
	}
	var hdr [MaxHeaderLen]byte
	for i := range hdr {
		hdr[i] = 0xff
	}
	n := p.PutHeader(&hdr)
	if n > len(want) || !bytes.Equal(hdr[:n], want[:n]) {
		t.Fatalf("PutHeader wrote %x, want a prefix of %x", hdr[:n], want)
	}
	if tail := want[n:]; !bytes.Equal(tail, make([]byte, len(tail))) {
		t.Fatalf("PutHeader stopped at %d of %d bytes, before a non-zero byte", n, len(want))
	}
}

// TestEncodersMatchReference: every encoder agrees with the reference
// on each case, including the largest header PutHeader must hold.
func TestEncodersMatchReference(t *testing.T) {
	cases := marshalCases()
	full := &Packet{
		IP: IPv4{TOS: 0xb8, TTL: 255, Protocol: ProtoTCP, ID: 0xffff, Src: IP(255, 255, 255, 255), Dst: IP(255, 255, 255, 254)},
		TCP: &TCP{
			SrcPort: 0xffff, DstPort: 0xffff, Seq: 0xffffffff, Ack: 0xffffffff, Flags: 0xff, Window: 0xffff, Urgent: 0xffff,
			Opt: TCPOptions{
				MSS: 0xffff, WindowScale: 15, SACKPermitted: true,
				HasTimestamps: true, TSVal: 0xffffffff, TSEcr: 0xffffffff,
				SACK:    [MaxSACKBlocks][2]uint32{{1, 2}, {3, 4}, {5, 6}, {0xffffffff, 0xfffffffe}},
				NumSACK: MaxSACKBlocks,
			},
		},
		PayloadLen: 1,
	}
	if got := full.Len() - full.PayloadLen; got != MaxHeaderLen {
		t.Fatalf("largest header is %d bytes, MaxHeaderLen %d", got, MaxHeaderLen)
	}
	cases = append(cases, full, &Packet{IP: IPv4{TTL: 1, Protocol: 47, Src: IP(1, 2, 3, 4)}, PayloadLen: 3})
	for _, p := range cases {
		checkEncoders(t, p)
	}
}
