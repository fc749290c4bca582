package mac

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSlice drives a ring and a plain slice FIFO with the
// same random push/pop/removeAt program: contents must agree after
// every step, across wraps and growth.
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r ring[int]
	var want []int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			r.push(step)
			want = append(want, step)
		case op < 8 && len(want) > 0:
			if got := r.pop(); got != want[0] {
				t.Fatalf("step %d: pop %d, want %d", step, got, want[0])
			}
			want = want[1:]
		case len(want) > 0:
			i := rng.Intn(len(want))
			r.removeAt(i)
			want = append(want[:i:i], want[i+1:]...)
		}
		if r.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", step, r.len(), len(want))
		}
		for i, v := range want {
			if r.at(i) != v {
				t.Fatalf("step %d: at(%d) = %d, want %d", step, i, r.at(i), v)
			}
		}
	}
}

// TestRingKeepsCapacity: a ring that fills and drains repeatedly stops
// allocating once it has held its peak depth, and zeroes what it
// releases.
func TestRingKeepsCapacity(t *testing.T) {
	var r ring[*MSDU]
	m := &MSDU{}
	cycle := func() {
		for i := 0; i < 100; i++ {
			r.push(m)
		}
		for r.len() > 0 {
			r.pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warm fill/drain cycle allocated %.0f times, want 0", allocs)
	}
	for i, v := range r.buf {
		if v != nil {
			t.Fatalf("slot %d still holds a pointer after draining", i)
		}
	}
}

// TestPeerTable: Get creates each peer once, returns the same pointer
// on every later call whatever the insertion order, and keeps
// pointers stable while the index grows.
func TestPeerTable(t *testing.T) {
	var pt PeerTable[peer]
	rng := rand.New(rand.NewSource(2))
	got := map[Addr]*peer{}
	for _, i := range rng.Perm(500) {
		a := Addr(3 * i)
		p := pt.Get(a)
		if got[a] != nil {
			t.Fatalf("addr %d created twice", a)
		}
		p.rxLastSeq = uint16(a)
		got[a] = p
	}
	for i := 0; i < 2000; i++ {
		a := Addr(3 * rng.Intn(500))
		if p := pt.Get(a); p != got[a] || p.rxLastSeq != uint16(a) {
			t.Fatalf("Get(%d) returned a different peer", a)
		}
	}
	if len(pt.index) != 500 {
		t.Errorf("index holds %d peers, want 500", len(pt.index))
	}
	for i := 1; i < len(pt.index); i++ {
		if pt.index[i-1].addr >= pt.index[i].addr {
			t.Fatalf("index not sorted at %d", i)
		}
	}
}
