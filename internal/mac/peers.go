package mac

// PeerTable holds per-peer state and finds it by address without
// hashing: a one-entry last-hit check, then a binary search of an
// address-sorted index. It grows with the peers a station actually
// exchanges frames with, never with the network, so a client of a
// 1000-station BSS holds one entry and its AP 999. Entries are
// allocated once and never move, so pointers to them stay valid. The
// zero value is an empty table.
type PeerTable[T any] struct {
	index []peerSlot[T] // sorted by addr
	last  *T            // state for lastA, nil before the first Get
	lastA Addr
}

type peerSlot[T any] struct {
	addr Addr
	p    *T
}

// Get returns the state for a, creating a zero T on first contact.
func (t *PeerTable[T]) Get(a Addr) *T {
	if t.last != nil && t.lastA == a {
		return t.last
	}
	i := t.search(a)
	if i == len(t.index) || t.index[i].addr != a {
		t.index = append(t.index, peerSlot[T]{})
		copy(t.index[i+1:], t.index[i:])
		t.index[i] = peerSlot[T]{a, new(T)}
	}
	t.last, t.lastA = t.index[i].p, a
	return t.last
}

// search returns the first index position whose address is ≥ a.
func (t *PeerTable[T]) search(a Addr) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.index[m].addr < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
