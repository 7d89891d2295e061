package consist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dpmr/internal/mem"
)

func ld(seq, addr uint64, w uint8, val uint64) mem.TraceEvent {
	return mem.TraceEvent{Seq: seq, Op: mem.TraceLoad, Addr: addr, Width: w, Val: val}
}

func st(seq, addr uint64, w uint8, val uint64) mem.TraceEvent {
	return mem.TraceEvent{Seq: seq, Op: mem.TraceStore, Addr: addr, Width: w, Val: val}
}

func TestCleanTrace(t *testing.T) {
	// Two threads, interleaved writes and reads, every read sees the most
	// recent write in seq order.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x100, 8, 1), ld(2, 0x100, 8, 2), st(4, 0x108, 8, 7)},
		{st(1, 0x100, 8, 2), ld(3, 0x100, 8, 2), ld(5, 0x108, 8, 7)},
	})
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Violations)
	}
	if r.Events != 6 {
		t.Fatalf("want 6 events checked, got %d", r.Events)
	}
}

func TestStaleRead(t *testing.T) {
	// The read at seq 3 returns the superseded value 1: a lost update.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x200, 8, 1), st(1, 0x200, 8, 2)},
		{ld(3, 0x200, 8, 1)},
	})
	if r.Clean() {
		t.Fatal("expected a violation")
	}
	v := r.Violations[0]
	if v.Class != ClassStaleRead {
		t.Fatalf("want %s, got %s", ClassStaleRead, v.Class)
	}
	if v.Thread != 1 || v.Got != 1 || v.Want != 2 || v.WriteSeq != 1 {
		t.Fatalf("bad violation detail: %+v", v)
	}
}

func TestThinAirRead(t *testing.T) {
	// The read returns 0xdead, which no traced write ever stored.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x300, 4, 5), ld(1, 0x300, 4, 0xdead)},
	})
	if r.Clean() {
		t.Fatal("expected a violation")
	}
	if got := r.Violations[0].Class; got != ClassThinAir {
		t.Fatalf("want %s, got %s", ClassThinAir, got)
	}
}

func TestFirstReadUnconstrained(t *testing.T) {
	// Reads before the first traced write see the untraced initial image
	// and must not be flagged; once a write lands, reads are constrained.
	r := CheckEvents([][]mem.TraceEvent{
		{ld(0, 0x400, 8, 0xabc), st(1, 0x400, 8, 9), ld(2, 0x400, 8, 0xabc)},
	})
	if len(r.Violations) != 1 {
		t.Fatalf("want exactly the post-write read flagged, got %v", r.Violations)
	}
	if r.Violations[0].Seq != 2 {
		t.Fatalf("wrong read flagged: %+v", r.Violations[0])
	}
}

func TestWidthsAreDistinctLocations(t *testing.T) {
	// A 4-byte read of a cell only ever written at 8 bytes is a different
	// location key: unconstrained, not a violation.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x500, 8, 0x1122334455667788), ld(1, 0x500, 4, 0x55667788)},
	})
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Violations)
	}
}

func TestRepeatedValueNotStale(t *testing.T) {
	// Writing the same value twice must not register it as "older": a
	// read returning it still matches the current write.
	r := CheckEvents([][]mem.TraceEvent{
		{st(0, 0x600, 8, 3), st(1, 0x600, 8, 3), ld(2, 0x600, 8, 3)},
	})
	if !r.Clean() {
		t.Fatalf("expected clean, got %v", r.Violations)
	}
}

// TestTwoValued: every checked trace is either clean or carries at least
// one named violation — metadata (truncation, drops) never manufactures
// a third verdict.
func TestTwoValued(t *testing.T) {
	s := mem.NewSpace(mem.Config{})
	tr := mem.NewTraceRec(1, 2)
	s.SetTrace(tr)
	addr, trap := s.Malloc(8)
	if trap != nil {
		t.Fatal(trap)
	}
	for i := 0; i < 5; i++ {
		// Overflow the 2-event buffer: the trace truncates.
		if trap := s.Store(addr, 8, uint64(i)); trap != nil {
			t.Fatal(trap)
		}
	}
	r := Check(tr)
	if !r.Truncated {
		t.Fatal("expected truncation metadata")
	}
	if !r.Clean() {
		t.Fatalf("truncation must not be a violation: %v", r.Violations)
	}
}

func TestNilRecorderClean(t *testing.T) {
	if r := Check(nil); !r.Clean() || r.Events != 0 {
		t.Fatalf("nil recorder must verify clean, got %+v", r)
	}
}

// referenceCheck is the checker CheckEvents replaced, kept as the
// differential oracle: it sorts every event into the total order and
// keeps, per location, the set of every superseded value.
func referenceCheck(threads [][]mem.TraceEvent) *Report {
	type taggedEvent struct {
		mem.TraceEvent
		thread int
	}
	type locState struct {
		cur     uint64 // most recent write's value
		curSeq  uint64
		written bool
		older   map[uint64]struct{} // values of superseded writes
	}
	r := &Report{}
	var all []taggedEvent
	for tid, evs := range threads {
		for _, e := range evs {
			all = append(all, taggedEvent{TraceEvent: e, thread: tid})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	locs := make(map[locKey]*locState)
	for _, e := range all {
		r.Events++
		k := locKey{addr: e.Addr, width: e.Width}
		st := locs[k]
		switch e.Op {
		case mem.TraceStore:
			if st == nil {
				st = &locState{}
				locs[k] = st
			}
			if st.written && st.cur != e.Val {
				if st.older == nil {
					st.older = make(map[uint64]struct{})
				}
				st.older[st.cur] = struct{}{}
			}
			st.cur, st.curSeq, st.written = e.Val, e.Seq, true
		case mem.TraceLoad:
			if st == nil || !st.written {
				continue // unconstrained before the first traced write
			}
			if e.Val == st.cur {
				continue
			}
			class := ClassThinAir
			if _, ok := st.older[e.Val]; ok {
				class = ClassStaleRead
			}
			r.Violations = append(r.Violations, Violation{
				Class: class, Thread: e.thread, Seq: e.Seq,
				Addr: e.Addr, Width: e.Width,
				Got: e.Val, Want: st.cur, WriteSeq: st.curSeq,
			})
		}
	}
	return r
}

// tracesFrom decodes fuzz bytes into per-thread traces over a small
// world — four addresses, widths 4 and 8 at each, eight values — so
// stale reads, thin-air reads, rewrites of the current value, mixed
// widths and loads before the first write all occur often. Each byte
// pair is one event; sequence numbers are unique and rise in every
// thread, with occasional gaps, as a recorder with dropped events
// leaves them.
func tracesFrom(nthreads uint8, ops []byte) [][]mem.TraceEvent {
	threads := make([][]mem.TraceEvent, 1+int(nthreads)%4)
	seq := uint64(0)
	for i := 0; i+1 < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		tid := int(a) % len(threads)
		op := mem.TraceLoad
		if a&0x04 != 0 {
			op = mem.TraceStore
		}
		width := uint8(8)
		if b&0x04 != 0 {
			width = 4
		}
		threads[tid] = append(threads[tid], mem.TraceEvent{
			Seq: seq, Op: op, Addr: 0x1000 + 8*uint64(b&0x03), Width: width, Val: uint64(b >> 5),
		})
		seq += 1 + uint64(a>>7)
	}
	return threads
}

func FuzzCheckEvents(f *testing.F) {
	f.Add(uint8(1), []byte{0x04, 0x20, 0x04, 0x40, 0x01, 0x20})             // stale read
	f.Add(uint8(0), []byte{0x04, 0x20, 0x00, 0xe0})                         // thin-air read
	f.Add(uint8(0), []byte{0x00, 0x60, 0x04, 0x20, 0x04, 0x20, 0x00, 0x20}) // early load, rewrite
	f.Add(uint8(2), []byte{0x04, 0x20, 0x01, 0x24, 0x86, 0x24, 0x02, 0x20}) // mixed widths, seq gap
	f.Fuzz(func(t *testing.T, nthreads uint8, ops []byte) {
		threads := tracesFrom(nthreads, ops)
		got, want := CheckEvents(threads), referenceCheck(threads)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CheckEvents and the reference disagree on %v:\n got %+v\nwant %+v", threads, got, want)
		}
	})
}

// TestCheckEventsMatchesReference runs the differential check over a
// fixed batch of pseudo-random traces, so the plain test run covers more
// than the fuzz seed corpus.
func TestCheckEventsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	violations := map[string]int{}
	for i := 0; i < 2000; i++ {
		ops := make([]byte, 2*rng.Intn(64))
		rng.Read(ops)
		threads := tracesFrom(uint8(rng.Intn(4)), ops)
		got, want := CheckEvents(threads), referenceCheck(threads)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d: CheckEvents and the reference disagree on %v:\n got %+v\nwant %+v", i, threads, got, want)
		}
		for _, v := range got.Violations {
			violations[v.Class]++
		}
	}
	if violations[ClassStaleRead] == 0 || violations[ClassThinAir] == 0 {
		t.Fatalf("random traces never exercised both classes: %v", violations)
	}
}

// TestCheckEventsWideKeys runs the differential check over a world the
// fuzz traces never reach: addresses with the top four bits set,
// addresses that differ only above bit 59, and one address accessed at
// every width. Packing width into the low bits of a shifted address
// would merge locations here; the checker's keying must not.
func TestCheckEventsWideKeys(t *testing.T) {
	type loc struct {
		addr  uint64
		width uint8
	}
	world := []loc{
		{0xf000_0000_0000_1000, 8},
		{0xffff_ffff_ffff_fff8, 8},
		{0x0000_0000_0000_2000, 8},
		{0x1000_0000_0000_2000, 8}, // differs from the above only in bit 60
		{0x8000_0000_0000_2000, 8}, // ... only in bit 63
		{0x3000, 1}, {0x3000, 2}, {0x3000, 4}, {0x3000, 8},
	}
	rng := rand.New(rand.NewSource(2))
	violations := map[string]int{}
	flagged := map[loc]bool{}
	for i := 0; i < 2000; i++ {
		threads := make([][]mem.TraceEvent, 1+rng.Intn(3))
		for seq := uint64(0); seq < uint64(rng.Intn(96)); seq++ {
			l := world[rng.Intn(len(world))]
			op := mem.TraceLoad
			if rng.Intn(2) == 0 {
				op = mem.TraceStore
			}
			tid := rng.Intn(len(threads))
			threads[tid] = append(threads[tid], mem.TraceEvent{
				Seq: seq, Addr: l.addr, Val: uint64(rng.Intn(4)), Op: op, Width: l.width,
			})
		}
		got, want := CheckEvents(threads), referenceCheck(threads)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d: CheckEvents and the reference disagree on %v:\n got %+v\nwant %+v", i, threads, got, want)
		}
		for _, v := range got.Violations {
			violations[v.Class]++
			flagged[loc{v.Addr, v.Width}] = true
		}
	}
	if violations[ClassStaleRead] == 0 || violations[ClassThinAir] == 0 {
		t.Fatalf("random traces never exercised both classes: %v", violations)
	}
	for _, l := range world {
		if !flagged[l] {
			t.Errorf("no violation was ever flagged at [%#x]/%d", l.addr, l.width)
		}
	}
}
