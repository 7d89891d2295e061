// Package consist is the offline consistency checker over the per-thread
// shared-memory traces recorded by mem.TraceRec: the new detection axis
// concurrent trials add on top of the DPMR outcome taxonomy.
//
// The interleaving scheduler serializes all execution, so the recorder's
// global sequence numbers totally order every shared-tier access, and the
// correctness condition is sharp: a read of location (addr, width) must
// return the value of the most recent write to that location in the total
// order. That is strictly stronger than PRAM/causal consistency — any
// PRAM violation over these traces is also a violation here — which is
// exactly what makes it a useful oracle: a fault injection that corrupts
// shared memory between a write and a dependent read surfaces as a named
// violation even when the program then exits normally (a silent failure
// under the paper's §3.6 taxonomy).
//
// Two violation classes are distinguished. A stale read returns a value
// some older write put at the location (the signature of lost updates and
// reordering); a thin-air read returns a value no traced write ever put
// there (the signature of wild corruption, replica divergence, or trace
// loss). A location's reads are unconstrained until its first traced
// write — initial images (zeroed memory, global init bytes) are written
// outside the traced window, so constraining first reads would flag
// correct programs.
//
// The checker is two-valued by construction: a trace either verifies
// clean (no violations) or yields a non-empty violation list. Truncation
// and failpoint drops are surfaced as report metadata, never as a third
// verdict.
package consist

import (
	"fmt"
	"math"
	"sync"

	"dpmr/internal/mem"
)

// Violation classes.
const (
	ClassStaleRead = "stale-read"
	ClassThinAir   = "thin-air"
)

// Violation is one read that contradicts the traced write history.
type Violation struct {
	Class    string `json:"class"`
	Thread   int    `json:"thread"`
	Seq      uint64 `json:"seq"` // the read's global sequence number
	Addr     uint64 `json:"addr"`
	Width    uint8  `json:"width"`
	Got      uint64 `json:"got"`      // value the read returned
	Want     uint64 `json:"want"`     // most recent write's value
	WriteSeq uint64 `json:"writeSeq"` // that write's sequence number
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: thread %d read [%#x]/%d = %#x at seq %d, want %#x (write seq %d)",
		v.Class, v.Thread, v.Addr, v.Width, v.Got, v.Seq, v.Want, v.WriteSeq)
}

// Report is one trace's checking outcome.
type Report struct {
	Violations []Violation
	Events     uint64 // accesses checked
	Truncated  bool   // a thread's trace buffer overflowed
	Dropped    uint64 // events discarded by the mem/trace-drop failpoint
}

// Clean reports whether the trace verified without violations.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Check verifies a recorder's trace. Nil recorders verify clean (tracing
// disabled records nothing to contradict).
func Check(t *mem.TraceRec) *Report {
	if t == nil {
		return &Report{}
	}
	threads := make([][]mem.TraceEvent, t.Threads())
	for i := range threads {
		threads[i] = t.Thread(i)
	}
	r := CheckEvents(threads)
	r.Truncated = t.Truncated()
	r.Dropped = t.Dropped()
	return r
}

// locKey identifies one checked location. Widths are part of the key:
// the workloads' shared cells are accessed at one fixed width each, and
// folding mixed-width aliasing into byte-granular tracking would buy
// generality the IR's atomics (integer slots, exact-width access) never
// exercise.
type locKey struct {
	addr  uint64
	width uint8
}

// locState is a location's most recent traced write. A location has a
// state only once it has been written.
type locState struct {
	cur    uint64 // the write's value
	curSeq uint64 // the write's sequence number
	width  uint8  // the location's width
}

// checker is CheckEvents' location state, recycled across checks. The
// states live in one slice, updated in place, so a write to a known
// location costs one map lookup. The index is keyed by address alone (a
// one-word key hashes much faster than a locKey) and points at the state
// of the first width each address was written at; a write at another
// width of an already-indexed address is indexed in mixed instead.
// Every (address, width) thus has exactly one slot and no two share one;
// the workloads never reach mixed.
type checker struct {
	index  map[uint64]int
	mixed  map[locKey]int
	states []locState
	heads  []int
}

var checkers = sync.Pool{New: func() any {
	return &checker{index: make(map[uint64]int), mixed: make(map[locKey]int)}
}}

// load returns the state of location (addr, width), if written.
func (c *checker) load(addr uint64, width uint8) (*locState, bool) {
	i, ok := c.index[addr]
	if ok && c.states[i].width != width {
		i, ok = c.mixed[locKey{addr, width}]
	}
	if !ok {
		return nil, false
	}
	return &c.states[i], true
}

// store records write e.
func (c *checker) store(e *mem.TraceEvent) {
	i, ok := c.index[e.Addr]
	if !ok {
		c.index[e.Addr] = c.add(e)
		return
	}
	if c.states[i].width != e.Width {
		k := locKey{e.Addr, e.Width}
		if i, ok = c.mixed[k]; !ok {
			c.mixed[k] = c.add(e)
			return
		}
	}
	c.states[i].cur, c.states[i].curSeq = e.Val, e.Seq
}

// add appends the state of a location first written by e.
func (c *checker) add(e *mem.TraceEvent) int {
	c.states = append(c.states, locState{cur: e.Val, curSeq: e.Seq, width: e.Width})
	return len(c.states) - 1
}

// CheckEvents verifies hand-assembled per-thread traces (the test
// surface; Check wraps it for recorder output). Each thread's events
// must be in increasing sequence order, as the recorder emits them; the
// threads are merged into the global total order by their heads, so a
// check costs one pass over the events. Sequence numbers are unique
// across threads in recorder output; ties go to the lower thread.
func CheckEvents(threads [][]mem.TraceEvent) *Report {
	c := checkers.Get().(*checker)
	r := c.check(threads)
	clear(c.index)
	clear(c.mixed)
	c.states = c.states[:0]
	checkers.Put(c)
	return r
}

func (c *checker) check(threads [][]mem.TraceEvent) *Report {
	r := &Report{}
	heads := c.heads[:0]
	for range threads {
		heads = append(heads, 0)
	}
	c.heads = heads
	var stores map[storeKey]uint64 // built on the first violation
	for {
		// Pick the thread with the lowest head; it runs until its next
		// event passes the lowest head of the others.
		tid, bound := -1, uint64(math.MaxUint64)
		for i, evs := range threads {
			if heads[i] == len(evs) {
				continue
			}
			s := evs[heads[i]].Seq
			switch {
			case tid < 0:
				tid = i
			case s < threads[tid][heads[tid]].Seq:
				bound, tid = threads[tid][heads[tid]].Seq, i
			case s < bound:
				bound = s
			}
		}
		if tid < 0 {
			return r
		}
		evs, h := threads[tid], heads[tid]
		for ; h < len(evs) && (h == heads[tid] || evs[h].Seq < bound); h++ {
			e := &evs[h]
			r.Events++
			if e.Op == mem.TraceStore {
				c.store(e)
				continue
			}
			if e.Op != mem.TraceLoad {
				continue
			}
			st, written := c.load(e.Addr, e.Width)
			if !written || e.Val == st.cur {
				continue // unconstrained before the first traced write, or current
			}
			if stores == nil {
				stores = firstStores(threads)
			}
			// A value that is not current was superseded iff some earlier
			// write stored it.
			class := ClassThinAir
			if seq, ok := stores[storeKey{locKey{e.Addr, e.Width}, e.Val}]; ok && seq < e.Seq {
				class = ClassStaleRead
			}
			r.Violations = append(r.Violations, Violation{
				Class: class, Thread: tid, Seq: e.Seq,
				Addr: e.Addr, Width: e.Width,
				Got: e.Val, Want: st.cur, WriteSeq: st.curSeq,
			})
		}
		heads[tid] = h
	}
}

// storeKey is one value written to one location.
type storeKey struct {
	loc locKey
	val uint64
}

// firstStores maps every value written to every location to the lowest
// sequence number that wrote it: the look-back a violation needs to tell
// a stale read from a thin-air one. Clean traces never build it.
func firstStores(threads [][]mem.TraceEvent) map[storeKey]uint64 {
	first := make(map[storeKey]uint64)
	for _, evs := range threads {
		for _, e := range evs {
			if e.Op != mem.TraceStore {
				continue
			}
			k := storeKey{locKey{e.Addr, e.Width}, e.Val}
			if seq, ok := first[k]; !ok || e.Seq < seq {
				first[k] = e.Seq
			}
		}
	}
	return first
}
