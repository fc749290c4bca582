// Package slab carves objects out of geometrically growing blocks, so
// a freelist that fills up to its peak population costs a logarithmic
// number of heap allocations instead of one per object.
//
// The simulator's per-network freelists (packets, MSDUs, MPDUs, event
// timers) recycle objects once warm, but every point of a campaign
// builds a fresh network and refills them from empty; with one malloc
// per object, those fills are most of what a warm campaign still
// allocates. A block stays reachable while any object carved from it
// is, which is what a per-network freelist keeps alive anyway.
package slab

// maxBlock bounds the objects per block; blocks start at minBlock and
// double, so a freelist that stays small (a client that queues a few
// TCP ACKs) stays cheap.
const (
	minBlock = 4
	maxBlock = 64
)

// Allocator hands out zeroed *T from blocks. The zero value is ready
// to use. It is not safe for concurrent use.
type Allocator[T any] struct {
	block []T
	size  int // size of the last block
}

// New returns a pointer to a zeroed T.
func (a *Allocator[T]) New() *T {
	if len(a.block) == 0 {
		a.size = min(max(2*a.size, minBlock), maxBlock)
		a.block = make([]T, a.size)
	}
	p := &a.block[0]
	a.block = a.block[1:]
	return p
}
