// Fixture for the lock-order check: a two-class acquisition cycle
// (one half witnessed through a helper call), a declared-order
// violation beside a finding-free acquisition in the declared order,
// same-class nesting, and the lockorder directive grammar.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// lockBoth witnesses A.mu -> B.mu directly.
func lockBoth(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock acquisition cycle`
	b.mu.Unlock()
}

// lockBothReversed witnesses B.mu -> A.mu through the call graph: the
// helper's acquisition is charged to the call site where B.mu is held.
func lockBothReversed(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lockA(a)
}

func lockA(a *A) {
	a.mu.Lock()
	a.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

// moguard: lockorder C.mu before D.mu

// wrongOrder acquires against the declared order: reported at the
// acquisition that closes the reversed edge, not as a cycle.
func wrongOrder(c *C, d *D) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock() // want `violating declared order`
	c.mu.Unlock()
}

// rightOrder acquires in the declared order: no finding, and the
// declared edge keeps the C/D pair out of the cycle report even though
// wrongOrder witnesses the reverse.
func rightOrder(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	d.mu.Unlock()
}

type E struct{ mu sync.Mutex }

// lockPair nests two instances of the same class: the type-level
// abstraction cannot order them, so the nesting itself is the finding.
func lockPair(x, y *E) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock() // want `an instance of .* is already held`
	y.mu.Unlock()
}

// moguard: lockorder C.mu toward D.mu // want `wants the form`

// moguard: lockorder Ghost.mu before C.mu // want `unknown lock`
