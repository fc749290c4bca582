// Package packet implements wire-format IPv4, TCP, and UDP headers.
//
// The simulator moves parsed header structs around for speed, but the
// formats here are real: Marshal produces RFC-conformant bytes with
// valid checksums and Unmarshal parses them back. ROHC compression
// (internal/rohc) operates on these exact bytes, so compressed-ACK
// sizes measured in experiments reflect genuine header redundancy, not
// a toy encoding.
//
// Hot paths that need a packet's bytes avoid Marshal's allocation with
// PutHeader, which writes the header bytes into a fixed-size array:
// the payload bytes are zero, so they carry no information. Both write
// identical bytes from one encoder.
//
// # Packet ownership
//
// A simulated network draws its packets from one Pool, which recycles
// them once nothing holds them any more. A packet counts its holders:
//
//   - The creator (Pool.Get) holds the first reference. It hands the
//     packet on and then drops that reference with Release; in this
//     repository the creators are the TCP endpoint, the ROHC
//     decompressor's reconstruction and the node's UDP source.
//   - Every holder that keeps the packet past the call that handed it
//     over calls Retain, and Release once it is done: the MAC's MSDU,
//     a wired link while the packet is in flight, a posted host-stack
//     or forwarding event, a HACK-held ACK, and a key of the HACK
//     driver's per-packet resolution map (so a recycled packet can
//     never match a stale key or pointer compare).
//   - A holder that uses the packet only for the duration of a call
//     (TCP input, the ROHC codecs, routing) takes no reference.
//
// The last Release returns the packet to its pool; a Release beyond
// the last panics. A packet whose pool is nil — one built as a struct
// literal, returned by Unmarshal or Clone, or drawn from a nil *Pool —
// is never recycled, and Retain and Release are no-ops on it.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tcphack/internal/slab"
)

// Addr is an IPv4 address.
type Addr [4]byte

// IP constructs an Addr from four octets.
func IP(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Protocol numbers used in the IPv4 header.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Header sizes in bytes.
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20 // without options
)

// IPv4 is an IPv4 header (no options — the simulator never emits
// them, and ROHC-TCP's static chain assumes their absence).
type IPv4 struct {
	TOS      byte
	ID       uint16
	TTL      byte
	Protocol byte
	Src, Dst Addr
	// Length is the total datagram length (header + payload). Marshal
	// fills it from the payload length; Unmarshal reports the parsed
	// value.
	Length uint16
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// TCPOptions carries the TCP options the simulator's stack uses. A
// zero value means "option absent".
type TCPOptions struct {
	// MSS advertises the maximum segment size (SYN segments only).
	MSS uint16
	// WindowScale is the window shift count + 1 (0 = absent), so that
	// an advertised shift of 0 is representable.
	WindowScale uint8
	// SACKPermitted is sent on SYNs to negotiate selective ACKs.
	SACKPermitted bool
	// Timestamps: TSVal/TSEcr per RFC 7323. Present if HasTimestamps.
	HasTimestamps bool
	TSVal, TSEcr  uint32
	// SACK holds NumSACK (left, right) sequence edges (RFC 2018: at
	// most 4, or 3 when combined with timestamps). The blocks are an
	// array, so copying a TCPOptions by value copies them too.
	SACK    [MaxSACKBlocks][2]uint32
	NumSACK uint8
}

// MaxSACKBlocks is the most SACK blocks a TCP header can carry: the
// 40-byte option space holds one SACK option of at most 4 blocks.
const MaxSACKBlocks = 4

// SACKBlocks returns the carried SACK blocks, a view into o.
func (o *TCPOptions) SACKBlocks() [][2]uint32 { return o.SACK[:o.NumSACK] }

// AppendSACK adds the block [left, right), reporting false (and adding
// nothing) when all MaxSACKBlocks slots are taken.
func (o *TCPOptions) AppendSACK(left, right uint32) bool {
	if o.NumSACK >= MaxSACKBlocks {
		return false
	}
	o.SACK[o.NumSACK] = [2]uint32{left, right}
	o.NumSACK++
	return true
}

// TCP is a TCP header plus options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Urgent           uint16
	Opt              TCPOptions
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	// Length is header + payload; Marshal computes it.
	Length uint16
}

// Packet is one IP datagram as it traverses the simulated network:
// parsed headers plus an opaque payload length. Payload bytes
// themselves are not materialized (the workloads are bulk transfers of
// synthetic data), but PayloadLen enters all length and checksum
// fields so the wire image is the right size.
type Packet struct {
	IP         IPv4
	TCP        *TCP // nil unless IP.Protocol == ProtoTCP
	UDP        *UDP // nil unless IP.Protocol == ProtoUDP
	PayloadLen int

	// home is the pool slot holding this packet, nil for packets that
	// are never recycled; refs counts the holders (see the package
	// documentation).
	home *pooled
	refs int32
}

// Pool is a freelist of packets. It grows on demand and recycles a
// packet once its last holder releases it. A Pool is not safe for
// concurrent use: each simulated network owns one. The zero value is
// an empty pool, and a nil *Pool hands out packets that are never
// recycled.
type Pool struct {
	free []*pooled
	objs slab.Allocator[pooled] // where the freelist grows from
}

// pooled is one freelist object: a packet together with the TCP and
// UDP headers it points at, so a packet and its headers are one object
// for their whole lifetime in the pool.
type pooled struct {
	pkt  Packet
	tcp  TCP
	udp  UDP
	pool *Pool
}

// Get returns a zeroed packet of the given IP protocol: TCP or UDP is
// set to a zeroed header for ProtoTCP or ProtoUDP, and the caller
// holds its one reference.
func (pl *Pool) Get(proto byte) *Packet {
	var s *pooled
	if pl != nil && len(pl.free) > 0 {
		s = pl.free[len(pl.free)-1]
		pl.free = pl.free[:len(pl.free)-1]
		s.tcp, s.udp = TCP{}, UDP{}
	} else if pl != nil {
		s = pl.objs.New()
		s.pool = pl
	} else {
		s = &pooled{}
	}
	s.pkt = Packet{IP: IPv4{Protocol: proto}, refs: 1}
	if pl != nil {
		s.pkt.home = s
	}
	switch proto {
	case ProtoTCP:
		s.pkt.TCP = &s.tcp
	case ProtoUDP:
		s.pkt.UDP = &s.udp
	}
	return &s.pkt
}

// Retain adds a holder reference. Retaining a packet that holds no
// reference (it is back in its pool) panics. It is a no-op on a packet
// that is never recycled.
func (p *Packet) Retain() {
	if p.home == nil {
		return
	}
	if p.refs <= 0 {
		panic("packet: Retain of a packet with no reference")
	}
	p.refs++
}

// Release drops a holder reference; the last one returns the packet to
// its pool. Releasing a packet that holds no reference panics. It is a
// no-op on a packet that is never recycled.
func (p *Packet) Release() {
	if p.home == nil {
		return
	}
	p.refs--
	switch {
	case p.refs == 0:
		p.home.pool.free = append(p.home.pool.free, p.home)
	case p.refs < 0:
		panic("packet: Release of a packet with no reference")
	}
}

// Len returns the total IP datagram length in bytes.
func (p *Packet) Len() int {
	n := IPv4HeaderLen + p.PayloadLen
	switch {
	case p.TCP != nil:
		n += TCPHeaderLen + p.TCP.Opt.wireLen()
	case p.UDP != nil:
		n += UDPHeaderLen
	}
	return n
}

// IsTCPAck reports whether p is a pure TCP ACK: an ACK-flagged segment
// carrying no payload and no SYN/FIN/RST. These are the packets HACK
// compresses into link-layer acknowledgments.
func (p *Packet) IsTCPAck() bool {
	return p.TCP != nil && p.PayloadLen == 0 &&
		p.TCP.Flags&FlagACK != 0 &&
		p.TCP.Flags&(FlagSYN|FlagFIN|FlagRST) == 0
}

// Clone returns a deep copy of p that is never recycled.
func (p *Packet) Clone() *Packet {
	q := *p
	q.home, q.refs = nil, 0
	if p.TCP != nil {
		t := *p.TCP
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		q.UDP = &u
	}
	return &q
}

func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("TCP %v:%d>%v:%d seq=%d ack=%d len=%d flags=%s",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			p.TCP.Seq, p.TCP.Ack, p.PayloadLen, flagString(p.TCP.Flags))
	case p.UDP != nil:
		return fmt.Sprintf("UDP %v:%d>%v:%d len=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, p.PayloadLen)
	}
	return fmt.Sprintf("IP %v>%v proto=%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol, p.PayloadLen)
}

func flagString(f byte) string {
	names := []struct {
		bit  byte
		name string
	}{
		{FlagSYN, "S"}, {FlagFIN, "F"}, {FlagRST, "R"},
		{FlagPSH, "P"}, {FlagACK, "A"}, {FlagURG, "U"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			s += n.name
		}
	}
	if s == "" {
		return "-"
	}
	return s
}

// wireLen returns the encoded length of the options, padded to a
// 4-byte boundary.
func (o *TCPOptions) wireLen() int {
	n := 0
	if o.MSS != 0 {
		n += 4
	}
	if o.WindowScale != 0 {
		n += 3
	}
	if o.SACKPermitted {
		n += 2
	}
	if o.HasTimestamps {
		n += 10
	}
	if o.NumSACK > 0 {
		n += 2 + 8*int(o.NumSACK)
	}
	return (n + 3) &^ 3
}

func (o *TCPOptions) marshal(b []byte) int {
	i := 0
	if o.MSS != 0 {
		b[i], b[i+1] = 2, 4
		binary.BigEndian.PutUint16(b[i+2:], o.MSS)
		i += 4
	}
	if o.WindowScale != 0 {
		b[i], b[i+1], b[i+2] = 3, 3, o.WindowScale-1
		i += 3
	}
	if o.SACKPermitted {
		b[i], b[i+1] = 4, 2
		i += 2
	}
	if o.HasTimestamps {
		b[i], b[i+1] = 8, 10
		binary.BigEndian.PutUint32(b[i+2:], o.TSVal)
		binary.BigEndian.PutUint32(b[i+6:], o.TSEcr)
		i += 10
	}
	if o.NumSACK > 0 {
		b[i], b[i+1] = 5, byte(2+8*o.NumSACK)
		i += 2
		for _, blk := range o.SACKBlocks() {
			binary.BigEndian.PutUint32(b[i:], blk[0])
			binary.BigEndian.PutUint32(b[i+4:], blk[1])
			i += 8
		}
	}
	for i%4 != 0 {
		b[i] = 1 // NOP padding
		i++
	}
	return i
}

func parseTCPOptions(b []byte) (TCPOptions, error) {
	var o TCPOptions
	for i := 0; i < len(b); {
		kind := b[i]
		switch kind {
		case 0: // EOL
			return o, nil
		case 1: // NOP
			i++
			continue
		}
		if i+1 >= len(b) {
			return o, errors.New("packet: truncated TCP option")
		}
		l := int(b[i+1])
		if l < 2 || i+l > len(b) {
			return o, errors.New("packet: bad TCP option length")
		}
		body := b[i+2 : i+l]
		switch kind {
		case 2:
			if len(body) != 2 {
				return o, errors.New("packet: bad MSS option")
			}
			o.MSS = binary.BigEndian.Uint16(body)
		case 3:
			if len(body) != 1 {
				return o, errors.New("packet: bad wscale option")
			}
			o.WindowScale = body[0] + 1
		case 4:
			o.SACKPermitted = true
		case 8:
			if len(body) != 8 {
				return o, errors.New("packet: bad timestamp option")
			}
			o.HasTimestamps = true
			o.TSVal = binary.BigEndian.Uint32(body)
			o.TSEcr = binary.BigEndian.Uint32(body[4:])
		case 5:
			if len(body)%8 != 0 || len(body) == 0 {
				return o, errors.New("packet: bad SACK option")
			}
			for j := 0; j < len(body); j += 8 {
				if !o.AppendSACK(binary.BigEndian.Uint32(body[j:]), binary.BigEndian.Uint32(body[j+4:])) {
					return o, errors.New("packet: too many SACK blocks")
				}
			}
		}
		i += l
	}
	return o, nil
}

// MaxHeaderLen is the longest header PutHeader writes: IPv4 plus a TCP
// header carrying every option this package encodes (MSS, window
// scale, SACK-permitted, timestamps and MaxSACKBlocks SACK blocks,
// padded to a 4-byte boundary).
const MaxHeaderLen = IPv4HeaderLen + TCPHeaderLen + (4+3+2+10+2+8*MaxSACKBlocks+3)&^3

// Marshal encodes the packet's headers into wire format. The payload
// is represented by PayloadLen zero bytes so checksums are stable and
// sizes exact.
func (p *Packet) Marshal() []byte {
	b := make([]byte, p.Len())
	p.putHeader(b)
	return b
}

// PutHeader writes the header bytes of p's wire image — Marshal's
// output without the payload's trailing zero bytes — into b and
// returns how many it wrote. It allocates nothing and needs no cleared
// buffer; the ROHC header CRC builds its image with it.
func (p *Packet) PutHeader(b *[MaxHeaderLen]byte) int { return p.putHeader(b[:]) }

// putHeader writes every byte of p's IPv4 and TCP/UDP headers into b
// and returns their length; the payload that follows them on the wire
// is PayloadLen zero bytes, which putHeader leaves to the caller. Zero
// bytes add nothing to an Internet checksum, so both checksums are
// folded from the header fields — plus the option bytes just written —
// instead of being re-read from b: the sums are the same 16-bit words
// Checksum would add, so the result is bit-identical.
func (p *Packet) putHeader(b []byte) int {
	ip := &p.IP
	hl := IPv4HeaderLen
	optLen := 0
	switch {
	case p.TCP != nil:
		optLen = p.TCP.Opt.wireLen()
		hl += TCPHeaderLen + optLen
	case p.UDP != nil:
		hl += UDPHeaderLen
	}
	total := uint16(hl + p.PayloadLen)
	addrs := uint32(ip.Src[0])<<8 | uint32(ip.Src[1])
	addrs += uint32(ip.Src[2])<<8 | uint32(ip.Src[3])
	addrs += uint32(ip.Dst[0])<<8 | uint32(ip.Dst[1])
	addrs += uint32(ip.Dst[2])<<8 | uint32(ip.Dst[3])

	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:], total)
	binary.BigEndian.PutUint16(b[4:], ip.ID)
	b[6], b[7] = 0, 0 // flags, fragment offset
	b[8] = ip.TTL
	b[9] = ip.Protocol
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	sum := 0x4500 | uint32(ip.TOS)
	sum += uint32(total) + uint32(ip.ID)
	sum += uint32(ip.TTL)<<8 | uint32(ip.Protocol)
	binary.BigEndian.PutUint16(b[10:], fold(sum+addrs))

	// The TCP/UDP checksum covers the pseudo-header (addresses,
	// protocol, segment length) and the segment itself.
	segLen := uint16(hl - IPv4HeaderLen + p.PayloadLen)
	seg := b[IPv4HeaderLen:hl]
	switch {
	case p.TCP != nil:
		t := p.TCP
		binary.BigEndian.PutUint16(seg[0:], t.SrcPort)
		binary.BigEndian.PutUint16(seg[2:], t.DstPort)
		binary.BigEndian.PutUint32(seg[4:], t.Seq)
		binary.BigEndian.PutUint32(seg[8:], t.Ack)
		seg[12] = byte((TCPHeaderLen+optLen)/4) << 4
		seg[13] = t.Flags
		binary.BigEndian.PutUint16(seg[14:], t.Window)
		binary.BigEndian.PutUint16(seg[18:], t.Urgent)
		opts := seg[TCPHeaderLen:]
		t.Opt.marshal(opts)
		sum := addrs + ProtoTCP + uint32(segLen)
		sum += uint32(t.SrcPort) + uint32(t.DstPort)
		sum += t.Seq>>16 + t.Seq&0xffff + t.Ack>>16 + t.Ack&0xffff
		sum += uint32(seg[12])<<8 | uint32(t.Flags)
		sum += uint32(t.Window) + uint32(t.Urgent)
		for i := 0; i < len(opts); i += 2 { // optLen is a multiple of 4
			sum += uint32(opts[i])<<8 | uint32(opts[i+1])
		}
		binary.BigEndian.PutUint16(seg[16:], fold(sum))
	case p.UDP != nil:
		u := p.UDP
		binary.BigEndian.PutUint16(seg[0:], u.SrcPort)
		binary.BigEndian.PutUint16(seg[2:], u.DstPort)
		binary.BigEndian.PutUint16(seg[4:], segLen)
		sum := addrs + ProtoUDP + 2*uint32(segLen)
		sum += uint32(u.SrcPort) + uint32(u.DstPort)
		binary.BigEndian.PutUint16(seg[6:], fold(sum))
	}
	return hl
}

// fold finishes an Internet checksum from the plain sum of its 16-bit
// words: end-around carries, then the one's complement.
func fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// Unmarshal parses a wire-format IP datagram produced by Marshal (or
// any conformant encoder without IP options). It validates checksums.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < IPv4HeaderLen {
		return nil, errors.New("packet: short IPv4 header")
	}
	if b[0]>>4 != 4 {
		return nil, errors.New("packet: not IPv4")
	}
	ihl := int(b[0]&0xf) * 4
	if ihl != IPv4HeaderLen {
		return nil, errors.New("packet: IP options unsupported")
	}
	if Checksum(b[:IPv4HeaderLen]) != 0 {
		return nil, errors.New("packet: bad IP checksum")
	}
	var p Packet
	p.IP = IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:]),
		TTL:      b[8],
		Protocol: b[9],
		Length:   binary.BigEndian.Uint16(b[2:]),
	}
	copy(p.IP.Src[:], b[12:16])
	copy(p.IP.Dst[:], b[16:20])
	total := int(p.IP.Length)
	if total > len(b) || total < ihl {
		return nil, errors.New("packet: bad IP length")
	}
	seg := b[ihl:total]
	switch p.IP.Protocol {
	case ProtoTCP:
		if len(seg) < TCPHeaderLen {
			return nil, errors.New("packet: short TCP header")
		}
		if pseudoChecksum(&p.IP, ProtoTCP, seg) != 0 {
			return nil, errors.New("packet: bad TCP checksum")
		}
		dataOff := int(seg[12]>>4) * 4
		if dataOff < TCPHeaderLen || dataOff > len(seg) {
			return nil, errors.New("packet: bad TCP data offset")
		}
		opt, err := parseTCPOptions(seg[TCPHeaderLen:dataOff])
		if err != nil {
			return nil, err
		}
		p.TCP = &TCP{
			SrcPort: binary.BigEndian.Uint16(seg[0:]),
			DstPort: binary.BigEndian.Uint16(seg[2:]),
			Seq:     binary.BigEndian.Uint32(seg[4:]),
			Ack:     binary.BigEndian.Uint32(seg[8:]),
			Flags:   seg[13],
			Window:  binary.BigEndian.Uint16(seg[14:]),
			Urgent:  binary.BigEndian.Uint16(seg[18:]),
			Opt:     opt,
		}
		p.PayloadLen = len(seg) - dataOff
	case ProtoUDP:
		if len(seg) < UDPHeaderLen {
			return nil, errors.New("packet: short UDP header")
		}
		if pseudoChecksum(&p.IP, ProtoUDP, seg) != 0 {
			return nil, errors.New("packet: bad UDP checksum")
		}
		p.UDP = &UDP{
			SrcPort: binary.BigEndian.Uint16(seg[0:]),
			DstPort: binary.BigEndian.Uint16(seg[2:]),
			Length:  binary.BigEndian.Uint16(seg[4:]),
		}
		p.PayloadLen = len(seg) - UDPHeaderLen
	default:
		p.PayloadLen = len(seg)
	}
	return &p, nil
}

// Checksum computes the RFC 1071 Internet checksum over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return fold(sum)
}

// pseudoChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header.
func pseudoChecksum(ip *IPv4, proto byte, seg []byte) uint16 {
	var ph [12]byte
	copy(ph[0:4], ip.Src[:])
	copy(ph[4:8], ip.Dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	var sum uint32
	for i := 0; i < 12; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ph[i:]))
	}
	for i := 0; i+1 < len(seg); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(seg[i:]))
	}
	if len(seg)%2 == 1 {
		sum += uint32(seg[len(seg)-1]) << 8
	}
	return fold(sum)
}

// FiveTuple identifies a TCP flow.
type FiveTuple struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            byte
}

// Tuple extracts the flow five-tuple of a TCP packet; ok is false for
// non-TCP packets.
func (p *Packet) Tuple() (t FiveTuple, ok bool) {
	if p.TCP == nil {
		return t, false
	}
	return FiveTuple{
		Src: p.IP.Src, Dst: p.IP.Dst,
		SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort,
		Proto: ProtoTCP,
	}, true
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		Src: t.Dst, Dst: t.Src,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Proto: t.Proto,
	}
}

func (t FiveTuple) String() string {
	return fmt.Sprintf("%v:%d>%v:%d/%d", t.Src, t.SrcPort, t.Dst, t.DstPort, t.Proto)
}
