// Differential scheduler harness. Randomized arm/cancel/Reset/Post
// programs, including bursts of same-instant Posts, drive three
// schedulers: the binary heap (the engine's original backend), the
// timing wheel, and an independent reference — a slice kept sorted by
// (at, seq), with no queue structure and no same-instant chaining. All
// three must produce identical fire order, pending counts, handle
// states and clocks: heap vs wheel catches a queue ordering bug, and
// either backend vs the reference also catches a bug in the chaining
// layer above both backends. Event traces captured from real ht150
// networks are replayed through heap and wheel.
package sim_test

import (
	"math/rand"
	"sort"
	"testing"

	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// handle is a timer handle as the op interpreter sees it.
type handle interface{ Pending() bool }

// scheduler is the surface the op interpreter drives: a sim backend
// through simSched, or refSched.
type scheduler interface {
	Now() sim.Time
	At(at sim.Time, fn func()) handle
	After(d sim.Duration, fn func()) handle
	Post(at sim.Time, fn func(any), arg any)
	PostAfter(d sim.Duration, fn func(any), arg any)
	NewTimer(fn func()) handle
	Reset(h handle, at sim.Time)
	Cancel(h handle)
	Step() bool
	RunUntil(limit sim.Time)
	Pending() int
	EventsFired() uint64
}

// simSched adapts *sim.Scheduler to the interpreter's handle type.
type simSched struct{ *sim.Scheduler }

func (s simSched) At(at sim.Time, fn func()) handle       { return s.Scheduler.At(at, fn) }
func (s simSched) After(d sim.Duration, fn func()) handle { return s.Scheduler.After(d, fn) }
func (s simSched) NewTimer(fn func()) handle              { return sim.NewTimer(fn) }
func (s simSched) Reset(h handle, at sim.Time)            { s.Scheduler.Reset(h.(*sim.Timer), at) }
func (s simSched) Cancel(h handle) {
	t, _ := h.(*sim.Timer)
	s.Scheduler.Cancel(t)
}

func backend(b sim.Backend) scheduler { return simSched{sim.NewSchedulerBackend(1, b)} }

// refSched is the reference scheduler: every pending event in one
// slice sorted by (at, seq), inserted and removed by binary search.
type refSched struct {
	now   sim.Time
	seq   uint64
	fired uint64
	q     []*refTimer
}

type refTimer struct {
	at         sim.Time
	seq        uint64
	fn         func()
	fnArg      func(any)
	arg        any
	pending    bool
	persistent bool
}

func (t *refTimer) Pending() bool { return t.pending }

func reference() scheduler { return &refSched{} }

// find returns the index of the first pending event not before (at, seq).
func (r *refSched) find(at sim.Time, seq uint64) int {
	return sort.Search(len(r.q), func(i int) bool {
		e := r.q[i]
		return e.at > at || e.at == at && e.seq >= seq
	})
}

func (r *refSched) schedule(t *refTimer, at sim.Time) {
	if at < r.now {
		panic("reference: scheduling in the past")
	}
	t.at, t.seq, t.pending = at, r.seq, true
	r.seq++
	i := r.find(at, t.seq)
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = t
}

func (r *refSched) unlink(t *refTimer) {
	i := r.find(t.at, t.seq)
	r.q = append(r.q[:i], r.q[i+1:]...)
	t.pending = false
}

func (r *refSched) Now() sim.Time { return r.now }

func (r *refSched) At(at sim.Time, fn func()) handle {
	t := &refTimer{fn: fn}
	r.schedule(t, at)
	return t
}

func (r *refSched) After(d sim.Duration, fn func()) handle { return r.At(r.now+d, fn) }

func (r *refSched) Post(at sim.Time, fn func(any), arg any) {
	r.schedule(&refTimer{fnArg: fn, arg: arg}, at)
}

func (r *refSched) PostAfter(d sim.Duration, fn func(any), arg any) { r.Post(r.now+d, fn, arg) }

func (r *refSched) NewTimer(fn func()) handle { return &refTimer{fn: fn, persistent: true} }

func (r *refSched) Reset(h handle, at sim.Time) {
	t := h.(*refTimer)
	if !t.persistent {
		panic("reference: Reset on a one-shot timer")
	}
	if t.pending {
		r.unlink(t)
	}
	r.schedule(t, at)
}

func (r *refSched) Cancel(h handle) {
	if t, _ := h.(*refTimer); t != nil && t.pending {
		r.unlink(t)
	}
}

func (r *refSched) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	t := r.q[0]
	r.q = r.q[1:]
	t.pending = false
	r.now = t.at
	r.fired++
	if t.fnArg != nil {
		t.fnArg(t.arg)
	} else {
		t.fn()
	}
	return true
}

func (r *refSched) RunUntil(limit sim.Time) {
	for len(r.q) > 0 && r.q[0].at <= limit {
		r.Step()
	}
	if r.now < limit {
		r.now = limit
	}
}

func (r *refSched) Pending() int        { return len(r.q) }
func (r *refSched) EventsFired() uint64 { return r.fired }

// Op kinds for the recorded scheduler programs. A program is
// interpreted identically against each backend; all randomness is
// pre-drawn into the op stream so the two executions are replicas.
const (
	opAt = iota
	opAfter
	opPost
	opPostAfter
	opCancel
	opCancelPersist
	opReset
	opStep
	opRunUntil
	numOps
)

type op struct {
	kind  int
	idx   int
	delta sim.Duration
	id    int
}

// Interpreter sizing: rings of one-shot handles and persistent timers.
const (
	nHandles = 128
	nPersist = 16
)

type rec struct {
	at sim.Time
	id int
}

type progResult struct {
	log     []rec
	now     sim.Time
	fired   uint64
	pending int            // Pending before the final drain
	handles [nHandles]bool // Pending state at end of program
	persist [nPersist]bool
}

// Post ids at or above nestedID were posted from inside a firing
// event; they never post again, which bounds the nesting.
const nestedID = 1 << 40

// runProgram interprets ops against s and returns everything
// observable: the full fire log (time, op id), periodic pending-count
// snapshots, and final handle states.
//
// opPost posts a burst of one to three events at one instant (a
// same-instant run), and a Post event whose id is 3 mod 7 posts two
// more events at its own instant from inside its callback — chained
// onto the run being drained when the latest schedule call was that
// run's pending tail.
func runProgram(s scheduler, ops []op) progResult {
	var (
		log     []rec
		handles [nHandles]handle
		persist [nPersist]handle
		fires   [nPersist]int
	)
	// Overflow-safe absolute target: clamping wrapped sums to now keeps
	// fuzz inputs with huge accumulated deltas valid and deterministic.
	target := func(d sim.Duration) sim.Time {
		at := s.Now() + d
		if at < s.Now() {
			return s.Now()
		}
		return at
	}
	for i := range persist {
		i := i
		persist[i] = s.NewTimer(func() {
			log = append(log, rec{s.Now(), -(i + 1)})
			fires[i]++
			if fires[i]%3 == 1 {
				// Deterministic bounded re-arm chain, including
				// zero-delay re-arms when the modulus lands on 0.
				d := sim.Duration(fires[i] * 37 * (i + 1) % 5000)
				s.Reset(persist[i], target(d))
			}
		})
	}
	var postFn func(any)
	postFn = func(a any) {
		id := a.(int)
		log = append(log, rec{s.Now(), id})
		if id%5 == 0 {
			// The pooled Timer that carried this event is already back
			// on the free list; re-arming a persistent timer for the
			// same tick must not alias it.
			s.Reset(persist[id%nPersist], s.Now())
		}
		if id%7 == 3 && id < nestedID {
			s.Post(s.Now(), postFn, id+nestedID)
			s.Post(s.Now(), postFn, id+2*nestedID)
		}
	}
	for _, o := range ops {
		switch o.kind {
		case opAt:
			id := o.id
			handles[o.idx%nHandles] = s.At(target(o.delta), func() {
				log = append(log, rec{s.Now(), id})
			})
		case opAfter:
			id := o.id
			handles[o.idx%nHandles] = s.After(target(o.delta)-s.Now(), func() {
				log = append(log, rec{s.Now(), id})
			})
		case opPost:
			at := target(o.delta)
			for k := 0; k <= o.idx%3; k++ {
				s.Post(at, postFn, 4*o.id+k)
			}
		case opPostAfter:
			s.PostAfter(target(o.delta)-s.Now(), postFn, 4*o.id)
		case opCancel:
			s.Cancel(handles[o.idx%nHandles]) // nil-safe
		case opCancelPersist:
			s.Cancel(persist[o.idx%nPersist])
		case opReset:
			s.Reset(persist[o.idx%nPersist], target(o.delta))
		case opStep:
			for i := 0; i <= o.idx%4; i++ {
				s.Step()
			}
			log = append(log, rec{s.Now(), 1_000_000 + s.Pending()})
		case opRunUntil:
			s.RunUntil(target(o.delta % 100_000))
			log = append(log, rec{s.Now(), 2_000_000 + s.Pending()})
		}
	}
	res := progResult{pending: s.Pending()}
	for i := 0; i < 20_000_000 && s.Step(); i++ {
	}
	res.log, res.now, res.fired = log, s.Now(), s.EventsFired()
	for i, h := range handles {
		res.handles[i] = h != nil && h.Pending()
	}
	for i, p := range persist {
		res.persist[i] = p.Pending()
	}
	return res
}

// compareResults requires got (named gotName) to reproduce want
// (named wantName) exactly.
func compareResults(t *testing.T, wantName, gotName string, want, got progResult) {
	t.Helper()
	n := len(want.log)
	if len(got.log) != n {
		t.Errorf("fire log length: %s %d, %s %d", wantName, n, gotName, len(got.log))
		if len(got.log) < n {
			n = len(got.log)
		}
	}
	for i := 0; i < n; i++ {
		if want.log[i] != got.log[i] {
			t.Fatalf("fire log diverges at %d: %s %+v, %s %+v",
				i, wantName, want.log[i], gotName, got.log[i])
		}
	}
	if want.now != got.now {
		t.Errorf("final clock: %s %v, %s %v", wantName, want.now, gotName, got.now)
	}
	if want.fired != got.fired {
		t.Errorf("events fired: %s %d, %s %d", wantName, want.fired, gotName, got.fired)
	}
	if want.pending != got.pending {
		t.Errorf("pending at end of program: %s %d, %s %d", wantName, want.pending, gotName, got.pending)
	}
	if want.handles != got.handles {
		t.Errorf("handle Pending states diverge:\n%s %v\n%s %v",
			wantName, want.handles, gotName, got.handles)
	}
	if want.persist != got.persist {
		t.Errorf("persistent timer states diverge:\n%s %v\n%s %v",
			wantName, want.persist, gotName, got.persist)
	}
}

// compareWithReference runs ops on the reference and on both backends
// and requires each backend to reproduce the reference.
func compareWithReference(t *testing.T, ops []op) progResult {
	t.Helper()
	ref := runProgram(reference(), ops)
	compareResults(t, "reference", "heap", ref, runProgram(backend(sim.BackendHeap), ops))
	compareResults(t, "reference", "wheel", ref, runProgram(backend(sim.BackendWheel), ops))
	return ref
}

// randDelta draws from a mix spanning every wheel level: same-tick
// collisions (0), MAC-timescale deltas, and jumps out to level 6.
func randDelta(r *rand.Rand) sim.Duration {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1, 2, 3:
		return sim.Duration(r.Intn(2000))
	case 4:
		return sim.Duration(r.Int63n(1 << 21))
	case 5:
		return sim.Duration(r.Int63n(1 << 35))
	case 6:
		return sim.Duration(r.Int63n(1 << 45))
	default:
		return sim.Duration(r.Int63n(1 << 55))
	}
}

func randOps(seed int64, n int) []op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: r.Intn(numOps), idx: r.Intn(1 << 16), delta: randDelta(r), id: i}
	}
	return ops
}

// TestDifferentialRandomOps drives both backends through one million
// randomized operations per seed and requires byte-identical fire
// logs, clocks, and handle states.
func TestDifferentialRandomOps(t *testing.T) {
	const opsPerRun = 1_000_000
	for _, seed := range []int64{1, 2, 42} {
		ops := randOps(seed, opsPerRun)
		heap := runProgram(backend(sim.BackendHeap), ops)
		wheel := runProgram(backend(sim.BackendWheel), ops)
		if len(heap.log) < opsPerRun/4 {
			t.Fatalf("seed %d: degenerate program, only %d fires", seed, len(heap.log))
		}
		compareResults(t, "heap", "wheel", heap, wheel)
	}
}

// TestReferenceRandomOps requires both backends to reproduce the
// reference scheduler on randomized programs. The reference's sorted
// slice costs O(pending) per insert, so the programs are shorter than
// TestDifferentialRandomOps's and there are more of them.
func TestReferenceRandomOps(t *testing.T) {
	const opsPerRun = 20_000
	for seed := int64(1); seed <= 12; seed++ {
		ref := compareWithReference(t, randOps(seed, opsPerRun))
		if len(ref.log) < opsPerRun/4 {
			t.Fatalf("seed %d: degenerate program, only %d fires", seed, len(ref.log))
		}
	}
}

// networkTrace runs a real ht150 network (aggregated 802.11n, HACK
// MORE-DATA, 3 TCP downloads) on the given backend and records the
// virtual time of every executed event.
func networkTrace(backend sim.Backend, loss float64, maxEvents int) ([]sim.Time, uint64) {
	opts := []scenario.Option{
		scenario.With80211n(),
		scenario.WithClients(3),
		scenario.WithMode(hack.ModeMoreData),
	}
	if loss > 0 {
		opts = append(opts, scenario.WithUniformLoss(loss))
	}
	cfg := scenario.New(opts...)
	cfg.SchedulerBackend = backend
	n := node.New(cfg)
	for ci := 0; ci < 3; ci++ {
		n.StartDownload(ci, 0, sim.Duration(ci)*sim.Millisecond)
	}
	trace := make([]sim.Time, 0, maxEvents)
	for len(trace) < maxEvents && n.Sched.Step() {
		trace = append(trace, n.Sched.Now())
	}
	return trace, n.Sched.EventsFired()
}

// TestDifferentialNetworkTrace captures the event-time trace of a real
// simulated network — the workload whose timer churn (NAV resets,
// response deadlines, block-ack flushes) the wheel is tuned for — and
// requires the wheel to replay the heap's trace exactly, lossless and
// at 5% uniform loss.
func TestDifferentialNetworkTrace(t *testing.T) {
	const maxEvents = 200_000
	for _, tc := range []struct {
		name string
		loss float64
	}{{"lossless", 0}, {"loss5pct", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			heap, heapFired := networkTrace(sim.BackendHeap, tc.loss, maxEvents)
			wheel, wheelFired := networkTrace(sim.BackendWheel, tc.loss, maxEvents)
			if len(heap) != len(wheel) {
				t.Fatalf("trace length: heap %d, wheel %d", len(heap), len(wheel))
			}
			if len(heap) < maxEvents/2 {
				t.Fatalf("degenerate trace: only %d events", len(heap))
			}
			for i := range heap {
				if heap[i] != wheel[i] {
					t.Fatalf("trace diverges at event %d: heap %v, wheel %v",
						i, heap[i], wheel[i])
				}
			}
			if heapFired != wheelFired {
				t.Fatalf("events fired: heap %d, wheel %d", heapFired, wheelFired)
			}
		})
	}
}

// opsFromBytes decodes a fuzz input into an op program: 4 bytes per op
// (kind+scale, index, 16-bit delta mantissa), with the scale shifting
// deltas out to ~2^60 so every wheel level is reachable.
func opsFromBytes(data []byte) []op {
	var ops []op
	for i := 0; i+3 < len(data); i += 4 {
		shift := uint(data[i]) / numOps % 45
		ops = append(ops, op{
			kind:  int(data[i]) % numOps,
			idx:   int(data[i+1]),
			delta: sim.Duration((int64(data[i+2]) | int64(data[i+3])<<8) << shift),
			id:    i,
		})
	}
	return ops
}

// FuzzSchedulerOrder feeds arbitrary op programs — same-tick
// collisions, same-instant Post runs, zero-delay re-arms, cancel/Reset
// storms — to the reference and both backends and requires identical
// pop order, pending counts and handle states. The seed corpus lives
// in testdata/fuzz/FuzzSchedulerOrder.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 7, 3, 0, 0})             // At(now), then steps
	f.Add([]byte{2, 0, 0, 0, 2, 5, 0, 0, 7, 0, 0, 0}) // same-tick Posts
	f.Add([]byte{6, 1, 1, 0, 6, 1, 0, 0, 7, 1, 0, 0}) // Reset churn, zero-delay
	seed := randOps(7, 64)
	raw := make([]byte, 0, len(seed)*4)
	for _, o := range seed {
		raw = append(raw, byte(o.kind), byte(o.idx), byte(o.delta), byte(o.delta>>8))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		compareWithReference(t, opsFromBytes(data))
	})
}
