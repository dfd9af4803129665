// Package locks exercises locksafe: nothing may be acquired while a
// lock is held.
package locks

import "sync"

type inner struct {
	mu sync.Mutex
	n  int
}

type outer struct {
	mu sync.RWMutex
}

// one lock at a time: clean.
func sequential(i *inner, o *outer) {
	i.mu.Lock()
	i.n++
	i.mu.Unlock()
	o.mu.Lock()
	o.mu.Unlock()
}

// nested acquires one lock while holding another.
func nested(o *outer, i *inner) {
	o.mu.Lock()
	i.mu.Lock() // want "^acquires a lock while holding sync\\.RWMutex field mu: nothing may be acquired under a lock$"
	i.mu.Unlock()
	o.mu.Unlock()
}

// readLocked acquires under a read lock.
func readLocked(o *outer, i *inner) {
	o.mu.RLock()
	i.mu.Lock() // want "^acquires a lock while holding sync\\.RWMutex field mu: nothing may be acquired under a lock$"
	i.mu.Unlock()
	o.mu.RUnlock()
}

// local acquires while holding a local mutex.
func local(i *inner) {
	var mu sync.Mutex
	mu.Lock()
	i.mu.Lock() // want "^acquires a lock while holding sync\\.Mutex variable mu: nothing may be acquired under a lock$"
	i.mu.Unlock()
	mu.Unlock()
}

// lockInner's may-acquire summary includes inner.mu.
func lockInner(i *inner) {
	i.mu.Lock()
	i.n++
	i.mu.Unlock()
}

// viaCall acquires through a callee.
func viaCall(o *outer, i *inner) {
	o.mu.Lock()
	lockInner(i) // want "^calls lockInner, which may acquire sync\\.Mutex field mu, while holding sync\\.RWMutex field mu$"
	o.mu.Unlock()
}

// deferred unlocks hold to function end.
func deferred(i *inner, o *outer) {
	i.mu.Lock()
	defer i.mu.Unlock()
	o.mu.Lock() // want "^acquires a lock while holding sync\\.Mutex field mu: nothing may be acquired under a lock$"
	o.mu.Unlock()
}

// closures are out of scope: the lock is taken where the closure runs.
func closure(i *inner, o *outer) func() {
	i.mu.Lock()
	defer i.mu.Unlock()
	return func() {
		o.mu.Lock()
		o.mu.Unlock()
	}
}
