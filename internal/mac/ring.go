package mac

// ring is a FIFO that keeps its capacity: a power-of-two circular
// buffer that doubles when full and never shrinks, so a queue that
// fills and drains in steady state stops allocating once it has seen
// its peak depth (a front-resliced slice loses the capacity in front
// of it and regrows on append). Popped and removed slots are zeroed so
// the ring never extends the lifetime of what it held.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// at returns the i-th element from the front.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the front element.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// removeAt removes the i-th element from the front, keeping the order
// of the rest.
func (r *ring[T]) removeAt(i int) {
	mask := len(r.buf) - 1
	for ; i < r.n-1; i++ {
		r.buf[(r.head+i)&mask] = r.buf[(r.head+i+1)&mask]
	}
	var zero T
	r.buf[(r.head+r.n-1)&mask] = zero
	r.n--
}

func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.head = buf, 0
}
