// Fixture for the goroutine-exit check: every go func literal needs a
// provable exit path — a select on a done/quit channel that returns, a
// bounded loop, a range loop, or an explicit molint:ignore suppression
// with a reason on the loop.
package goroutineexit

import "context"

var feed = make(chan int)
var tick = make(chan struct{})

func work()      {}
func use(int)    {}
func done() bool { return false }

func spawnAll(ctx context.Context, quit chan struct{}, items []int, n int) {
	go func() {
		for { // want `no provable exit path`
			work()
		}
	}()

	go func() {
		for { // select on ctx.Done with return: fine
			select {
			case <-ctx.Done():
				return
			case v := <-feed:
				use(v)
			}
		}
	}()

	go func() {
		for { // quit-channel receive with return: fine
			select {
			case <-quit:
				return
			default:
			}
			work()
		}
	}()

	go func() {
		for i := 0; i < 4; i++ { // constant bound: fine
			work()
		}
	}()

	go func() {
		for i := 0; i < n; i++ { // want `no provable exit path`
			work()
		}
	}()

	go func() {
		for range items { // range ends with its input: fine
			work()
		}
	}()

	go func() {
		//molint:ignore goroutine-exit drains a finite queue and returns
		for !done() {
			work()
		}
	}()

	go func() {
		for { // want `no provable exit path`
			select {
			case <-tick: // receives but never returns: the ticker loop leak
				work()
			}
		}
	}()

	go work() // named-function goroutines are out of intraprocedural reach
}
