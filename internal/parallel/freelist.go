package parallel

import (
	"runtime"
	"sync"
	"weak"
)

// FreeList recycles per-call scratch values across calls, whichever P the
// caller happens to run on.
//
// sync.Pool keeps a lone value in the private slot of the P that put it,
// and a Get from any other P cannot see that slot. A session that makes
// one call at a time and migrates between calls then misses the pool and
// rebuilds its scratch from nothing. FreeList keeps one list for all Ps
// behind a mutex instead. That suits per-call setup, taken once per solve,
// not per-element loops.
//
// Values age out as sync.Pool's do. After a garbage collection the list
// becomes a victim list of weak pointers, so the next collection frees a
// value nobody took back in between; a Get checks the list first and the
// victims second. A process that goes idle therefore keeps no scratch
// memory alive past two collections.
//
// New builds a value when both lists are empty. The zero FreeList with
// New set is ready to use.
type FreeList[T any] struct {
	New func() *T

	mu         sync.Mutex
	cur        []*T
	old        []weak.Pointer[T]
	registered bool
}

// Get takes a value off the list, or builds one with New.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.cur); n > 0 {
		v := l.cur[n-1]
		l.cur[n-1] = nil
		l.cur = l.cur[:n-1]
		l.mu.Unlock()
		return v
	}
	for n := len(l.old); n > 0; n-- {
		v := l.old[n-1].Value()
		l.old = l.old[:n-1]
		if v != nil {
			l.mu.Unlock()
			return v
		}
	}
	l.mu.Unlock()
	return l.New()
}

// Put hands v back for the next Get.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	l.cur = append(l.cur, v)
	if !l.registered {
		l.registered = true
		registerAging(l)
	}
	l.mu.Unlock()
}

// age runs after every garbage collection: the victims left from the one
// before are forgotten, and the current list becomes the victims.
func (l *FreeList[T]) age() {
	l.mu.Lock()
	l.old = l.old[:0]
	for i, v := range l.cur {
		l.old = append(l.old, weak.Make(v))
		l.cur[i] = nil
	}
	l.cur = l.cur[:0]
	l.mu.Unlock()
}

type ager interface{ age() }

var aging struct {
	mu    sync.Mutex
	lists []ager
}

// registerAging adds l to the lists aged at every garbage collection and
// arms the collection hook on the first call.
func registerAging(l ager) {
	aging.mu.Lock()
	first := len(aging.lists) == 0
	aging.lists = append(aging.lists, l)
	aging.mu.Unlock()
	if first {
		armGCHook()
	}
}

// gcSentinel is a heap object nothing refers to, so each collection frees
// it and runs its finalizer. The pointer field keeps it out of the tiny
// allocator, whose shared blocks would delay the finalizer.
type gcSentinel struct{ _ *byte }

// armGCHook ages every registered list after the next collection and
// re-arms itself for the one after.
func armGCHook() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		aging.mu.Lock()
		lists := aging.lists
		aging.mu.Unlock()
		for _, l := range lists {
			l.age()
		}
		armGCHook()
	})
}
