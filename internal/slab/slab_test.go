package slab

import "testing"

type obj struct {
	a, b int
	p    *obj
}

// TestAllocatorDistinctZeroed: every New returns a distinct, zeroed
// object, and writes through one never show through another.
func TestAllocatorDistinctZeroed(t *testing.T) {
	var a Allocator[obj]
	seen := map[*obj]bool{}
	for i := 0; i < 500; i++ {
		o := a.New()
		if seen[o] {
			t.Fatalf("object %d handed out twice", i)
		}
		if *o != (obj{}) {
			t.Fatalf("object %d not zeroed: %+v", i, *o)
		}
		seen[o] = true
		o.a, o.b, o.p = i, -i, o
	}
	for o := range seen {
		if o.p != o || o.b != -o.a {
			t.Fatalf("object overwritten: %+v", *o)
		}
	}
}

// TestAllocatorBlockGrowth: blocks double from minBlock to maxBlock, so
// n objects cost a logarithmic number of allocations up to the cap and
// one per maxBlock objects beyond it.
func TestAllocatorBlockGrowth(t *testing.T) {
	var a Allocator[obj]
	const n = 4 + 8 + 16 + 32 + 64 + 64 // six blocks
	allocs := testing.AllocsPerRun(1, func() {
		a = Allocator[obj]{}
		for i := 0; i < n; i++ {
			a.New()
		}
	})
	if allocs != 6 {
		t.Errorf("%d objects took %.0f allocations, want 6", n, allocs)
	}
}
