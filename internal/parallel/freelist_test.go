package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lens reports the lengths of l's current and victim lists.
func (l *FreeList[T]) lens() (cur, old int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cur), len(l.old)
}

// item is a test value. The pointer field keeps it out of the tiny
// allocator, which would let it share a block with other objects and
// outlive its last reference.
type item struct {
	id int
	_  *byte
}

// TestFreeListServesEveryPut checks that values put on several Ps all
// reach one later goroutine. The putters spin until all of them are
// running, so they hold different Ps when they put. A sync.Pool keeps one
// value per P in a private slot that other Ps cannot read, so there the
// values put on the other Ps would be rebuilt.
func TestFreeListServesEveryPut(t *testing.T) {
	const n = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	var built atomic.Int64
	l := FreeList[item]{New: func() *item { built.Add(1); return new(item) }}
	var running atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			running.Add(1)
			for running.Load() < n {
			}
			l.Put(&item{id: i})
		}(i)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		seen[l.Get().id] = true
	}
	if built.Load() != 0 || len(seen) != n {
		t.Fatalf("got %d distinct values back and built %d, want %d and 0", len(seen), built.Load(), n)
	}
}

// TestFreeListAgesOutAcrossCollections checks the sync.Pool lifetime: one
// garbage collection moves a value to the victim list, where Get still
// finds it; the victim list does not keep a value alive through the next
// collection, and a value idle through two collections is dropped.
func TestFreeListAgesOutAcrossCollections(t *testing.T) {
	var built atomic.Int64
	l := FreeList[item]{New: func() *item { built.Add(1); return new(item) }}
	waitFor := func(wantCur, wantOld int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if cur, old := l.lens(); cur == wantCur && old == wantOld {
				return
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		cur, old := l.lens()
		t.Fatalf("lists hold %d current and %d victim values, want %d and %d", cur, old, wantCur, wantOld)
	}
	v := l.Get()
	l.Put(v)
	waitFor(0, 1)
	if got := l.Get(); got != v {
		t.Fatal("Get missed the value on the victim list")
	}

	l.Put(v)
	waitFor(0, 1)
	l.mu.Lock()
	w := l.old[0]
	l.mu.Unlock()
	v = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the victim list kept an idle value alive through a collection")
	}

	l.Put(l.Get())
	waitFor(0, 0)
	l.Get()
	if b := built.Load(); b != 3 {
		t.Fatalf("New ran %d times, want 3 (first Get, after the reclaim, after two collections)", b)
	}
}

// TestFreeListConcurrentWithCollections runs Get/Put from several
// goroutines while collections age the lists (meaningful under -race).
func TestFreeListConcurrentWithCollections(t *testing.T) {
	l := FreeList[[16]float64]{New: func() *[16]float64 { return new([16]float64) }}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := l.Get()
				v[0]++
				l.Put(v)
			}
		}()
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	wg.Wait()
}
