package fault

import "sync/atomic"

// armed is the process-wide injector behind the hook sites
// (epoch.publish, live.notify, sse.write). A nil injector never trips,
// so an unarmed site costs one atomic load.
var armed atomic.Pointer[Injector]

// Arm points every hook site at in; nil disarms them. Armed once at
// startup by moserver's -failpoints, or per run by the chaos harness,
// before traffic flows.
func Arm(in *Injector) { armed.Store(in) }

// Hit evaluates the armed injector at a hook site.
func Hit(site string) error { return armed.Load().Hit(site) }
