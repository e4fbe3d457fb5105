//go:build faultinject

package fault

import "sync/atomic"

// HooksEnabled reports whether the hook failpoint sites (epoch.publish,
// live.notify, sse.write) are compiled into this binary.
const HooksEnabled = true

// armed is the process-wide injector behind the hook sites. A nil
// injector never trips.
var armed atomic.Pointer[Injector]

// Arm points every hook site at in; nil disarms them. Armed once at
// startup by moserver, or per run by the chaos harness, before traffic
// flows.
func Arm(in *Injector) { armed.Store(in) }

// Hit evaluates the armed injector at a hook site.
func Hit(site string) error { return armed.Load().Hit(site) }
