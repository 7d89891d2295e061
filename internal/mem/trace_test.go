package mem

import (
	"reflect"
	"testing"
	"unsafe"

	"dpmr/internal/failpt"
)

// TestTraceEventSize pins the packed event layout: three words and two
// bytes, padded to 32, so a full default buffer is 2 MiB per thread.
func TestTraceEventSize(t *testing.T) {
	if got := unsafe.Sizeof(TraceEvent{}); got != 32 {
		t.Fatalf("TraceEvent is %d bytes, want 32", got)
	}
}

// traceGroup records a stand-in group on rec: perThread accesses by each
// of threads threads, interleaved round-robin, loads and stores mixed
// over a few shared heap cells.
func traceGroup(t *testing.T, rec *TraceRec, threads, perThread int) {
	t.Helper()
	s := newTestSpace()
	s.SetTrace(rec)
	base, trap := s.Malloc(64)
	if trap != nil {
		t.Fatal(trap)
	}
	for i := 0; i < perThread; i++ {
		for tid := 0; tid < threads; tid++ {
			rec.SetThread(tid)
			addr := base + 8*uint64((i+tid)%4)
			if (i+tid)%3 == 0 {
				if _, trap := s.Load(addr, 8); trap != nil {
					t.Fatal(trap)
				}
			} else if trap := s.Store(addr, 8, uint64(100*tid+i)); trap != nil {
				t.Fatal(trap)
			}
		}
	}
}

type traceView struct {
	Threads   [][]TraceEvent
	Len       uint64
	Truncated bool
	Dropped   uint64
}

func viewOf(rec *TraceRec) traceView {
	v := traceView{Len: rec.Len(), Truncated: rec.Truncated(), Dropped: rec.Dropped()}
	for tid := 0; tid < rec.Threads(); tid++ {
		v.Threads = append(v.Threads, append([]TraceEvent{}, rec.Thread(tid)...))
	}
	return v
}

// TestTraceRecRelease: a recorder released after a group that truncated
// and lost events to the mem/trace-drop failpoint records the next group
// exactly as a fresh recorder does.
func TestTraceRecRelease(t *testing.T) {
	const threads, limit = 3, 16
	fresh := &TraceRec{threads: make([][]TraceEvent, threads), limit: limit}
	traceGroup(t, fresh, threads, 10)
	want := viewOf(fresh)
	if want.Truncated || want.Dropped != 0 || want.Len != threads*10 {
		t.Fatalf("the clean group must fit the bound: %+v", want)
	}

	// sync.Pool may drop a Put (the race detector does so on purpose),
	// so dirty and release recorders until one comes back.
	var rec *TraceRec
	for attempt := 0; attempt < 50 && rec == nil; attempt++ {
		dirty := NewTraceRec(threads, limit)
		if err := failpt.Arm("mem/trace-drop=drop@5"); err != nil {
			t.Fatal(err)
		}
		traceGroup(t, dirty, threads, 30)
		failpt.Disarm()
		if !dirty.Truncated() || dirty.Dropped() != 1 {
			t.Fatalf("dirty group: truncated %v dropped %d, want true and 1", dirty.Truncated(), dirty.Dropped())
		}
		dirty.Release()
		if redrawn := NewTraceRec(threads, limit); redrawn == dirty {
			rec = redrawn
		}
	}
	if rec == nil {
		t.Fatal("the pool never handed a released recorder back")
	}
	for tid := 0; tid < threads; tid++ {
		if c := cap(rec.Thread(tid)); c == 0 || c > limit {
			t.Errorf("thread %d: recycled buffer capacity %d, want 1..%d", tid, c, limit)
		}
	}
	traceGroup(t, rec, threads, 10)
	if got := viewOf(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled recorder:\n got %+v\nwant %+v", got, want)
	}
	rec.Release()
}

// TestTraceRecReleaseNil: releasing no recorder (tracing disabled) is a
// no-op.
func TestTraceRecReleaseNil(t *testing.T) {
	var rec *TraceRec
	rec.Release()
}

// TestTraceRecBufferBound: a buffer never grows past its recorder's
// limit, and a recycled recorder with a smaller limit drops buffers
// larger than it, so the pool holds at most limit events per thread.
func TestTraceRecBufferBound(t *testing.T) {
	for attempt := 0; attempt < 50; attempt++ {
		rec := &TraceRec{threads: make([][]TraceEvent, 1), limit: 300}
		traceGroup(t, rec, 1, 1000)
		if c := cap(rec.Thread(0)); c != 300 {
			t.Fatalf("full buffer capacity %d, want the limit 300", c)
		}
		rec.Release()
		if got := NewTraceRec(1, 100); got == rec {
			if c := cap(got.Thread(0)); c > 100 {
				t.Fatalf("recycled buffer capacity %d exceeds the new limit 100", c)
			}
			return
		}
	}
	t.Fatal("the pool never handed a released recorder back")
}
