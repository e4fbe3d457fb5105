//go:build !faultinject

package fault

// HooksEnabled reports whether the hook failpoint sites (epoch.publish,
// live.notify, sse.write) are compiled into this binary. In production
// builds they do not exist; only the wal.* sites — injected through the
// pipeline's LogIO seam — are available.
const HooksEnabled = false

// Arm is a no-op without the faultinject tag: there are no hooks to arm.
func Arm(*Injector) {}

// Hit is the production no-op behind the hook sites: the compiler
// inlines it away, so unfaulted builds carry no injection machinery on
// the hot path.
func Hit(string) error { return nil }
