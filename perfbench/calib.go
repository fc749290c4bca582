package main

import (
	"container/heap"
	"sync"
	"time"
)

// The simulator shares its host with other tenants whose load changes
// from one second to the next; on the 2-vCPU baseline host that moves
// the wall time of unchanged code by ±15–30% between 10 s runs. The
// benchmark therefore times a fixed calibration load around every
// repetition and reports host-time metrics scaled to a host that runs
// the load in calibRef. Over ten 8 s runs of paper-ht150 on that host,
// scaling cut the spread (interquartile range over median) of
// points_per_s from 0.15 to 0.04. The calibration is the benchmark's
// own code, so a change to the simulator cannot change it.

// calibSteps is the fixed work of one calibration goroutine.
const calibSteps = 50_000

// calibRef is the calibration time of the reference host: the median
// measured on the 2-vCPU baseline host (see README.md), so calibrated
// figures read like that host's wall figures at its typical load.
const calibRef = 46 * time.Millisecond

// calibEvent is one entry of the calibration's event queue.
type calibEvent struct {
	at  uint64
	key uint32
}

type calibQueue []calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibSink keeps the calibration's results live.
var calibSink [workers]uint64

// calibWork is a fixed load shaped like the simulator's: a binary-heap
// event queue, map lookups, and a short-lived allocation per event kept
// live for a while, so the allocator and the garbage collector work as
// they do for frames and packets. Its working set is built afresh on
// every call, so one unlucky memory placement does not bias a whole
// run.
func calibWork(seed uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := make(calibQueue, 0, 1024)
	for i := range 1024 {
		q = append(q, calibEvent{at: next() % 4096, key: uint32(i)})
	}
	heap.Init(&q)
	table := make(map[uint32][]byte, 4096)
	var ring [256][]byte
	var sum uint64
	for i := range calibSteps {
		e := heap.Pop(&q).(calibEvent)
		buf := make([]byte, 64+next()%448)
		buf[0] = byte(e.key)
		ring[i%len(ring)] = buf
		if old, ok := table[e.key%4096]; ok {
			sum += uint64(len(old))
		}
		table[e.key%4096] = buf
		heap.Push(&q, calibEvent{at: e.at + 1 + next()%64, key: uint32(next())})
	}
	return sum
}

// calibrate runs the calibration load on every worker at once and
// returns its wall time: the host's current speed on fixed work.
func calibrate() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibSink[w] = calibWork(uint64(w) + 1)
		}()
	}
	wg.Wait()
	return time.Since(start)
}
