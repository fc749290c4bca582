package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzMarshalRoundTrip builds a TCP segment from the fuzzed fields —
// 0 to 4 SACK blocks drawn from sacks, 8 bytes each (at most 3 next to
// timestamps, which is all the option space holds) — and requires
// every encoder to match the reference one and Marshal→Unmarshal to
// reproduce every header field.
func FuzzMarshalRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(2920), uint32(100), uint32(90), uint16(4096), uint16(7), uint16(0), byte(FlagACK), true, []byte{})
	f.Add(uint32(5), uint32(1000), uint32(9), uint32(8), uint16(512), uint16(11), uint16(0), byte(FlagACK), true,
		[]byte{0, 0, 7, 208, 0, 0, 11, 184, 0, 0, 15, 160, 0, 0, 19, 136})
	f.Add(uint32(0xfffffff0), uint32(0), uint32(0), uint32(0), uint16(0xffff), uint16(0xffff), uint16(1448), byte(FlagACK|FlagPSH), false,
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Fuzz(func(t *testing.T, seq, ack, tsv, tse uint32, win, id, payload uint16, flags byte, hasTS bool, sacks []byte) {
		var pl Pool
		p := pl.Get(ProtoTCP)
		defer p.Release()
		p.IP = IPv4{TTL: 64, Protocol: ProtoTCP, ID: id, Src: IP(10, 0, 0, 2), Dst: IP(192, 168, 1, 1)}
		p.PayloadLen = int(payload) % 1500
		*p.TCP = TCP{SrcPort: 50000, DstPort: 5001, Seq: seq, Ack: ack, Flags: flags, Window: win}
		maxBlocks := MaxSACKBlocks
		if hasTS {
			p.TCP.Opt.HasTimestamps, p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr = true, tsv, tse
			maxBlocks = 3
		}
		for len(sacks) >= 8 && int(p.TCP.Opt.NumSACK) < maxBlocks {
			p.TCP.Opt.AppendSACK(binary.BigEndian.Uint32(sacks), binary.BigEndian.Uint32(sacks[4:]))
			sacks = sacks[8:]
		}
		checkEncoders(t, p)
		b := p.Marshal()
		if len(b) != p.Len() {
			t.Fatalf("wire image %d bytes, Len %d", len(b), p.Len())
		}
		q, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal): %v", err)
		}
		want := p.IP
		want.Length = uint16(p.Len())
		if q.IP != want || *q.TCP != *p.TCP || q.PayloadLen != p.PayloadLen || q.UDP != nil {
			t.Fatalf("round trip differs:\n got %+v %+v len=%d\nwant %+v %+v len=%d",
				q.IP, *q.TCP, q.PayloadLen, want, *p.TCP, p.PayloadLen)
		}
	})
}

// FuzzUnmarshal feeds arbitrary bytes to the validating parser. It
// must never panic, and whatever it accepts must re-encode to a wire
// image that parses back to the same headers and is a fixed point of
// Marshal (unknown options and payload bytes are not modelled,
// so the first image itself need not be reproduced).
func FuzzUnmarshal(f *testing.F) {
	ack := tcpAck(100, 2920)
	ack.TCP.Opt.HasTimestamps, ack.TCP.Opt.TSVal, ack.TCP.Opt.TSEcr = true, 1, 2
	ack.TCP.Opt.AppendSACK(3000, 4460)
	f.Add(ack.Marshal())
	f.Add((&Packet{
		IP:         IPv4{TTL: 64, Protocol: ProtoUDP, Src: IP(1, 2, 3, 4), Dst: IP(5, 6, 7, 8)},
		UDP:        &UDP{SrcPort: 9, DstPort: 9},
		PayloadLen: 16,
	}).Marshal())
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		checkEncoders(t, p)
		img := p.Marshal()
		q, err := Unmarshal(img)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if q.IP.Length != uint16(len(img)) || q.PayloadLen != p.PayloadLen {
			t.Fatalf("length fields: IP %d for %d bytes, payload %d vs %d", q.IP.Length, len(img), q.PayloadLen, p.PayloadLen)
		}
		pIP, qIP := p.IP, q.IP
		pIP.Length, qIP.Length = 0, 0
		if pIP != qIP {
			t.Fatalf("IP header %+v, re-parsed %+v", p.IP, q.IP)
		}
		if (p.TCP == nil) != (q.TCP == nil) || p.TCP != nil && *p.TCP != *q.TCP {
			t.Fatalf("TCP header %+v, re-parsed %+v", p.TCP, q.TCP)
		}
		if (p.UDP == nil) != (q.UDP == nil) || p.UDP != nil && (p.UDP.SrcPort != q.UDP.SrcPort || p.UDP.DstPort != q.UDP.DstPort) {
			t.Fatalf("UDP header %+v, re-parsed %+v", p.UDP, q.UDP)
		}
		if again := q.Marshal(); !bytes.Equal(again, img) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", img, again)
		}
	})
}
