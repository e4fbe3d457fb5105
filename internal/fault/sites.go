package fault

import "sort"

// SiteInfo describes one registered failpoint site: where in the stack
// the hook lives and what tripping it simulates. The catalog is the
// single source of truth for chaos tooling — ParseSpecs rejects sites
// that are not listed here, so a chaos profile or -failpoints flag that
// references a renamed or deleted site fails at startup instead of
// silently injecting nothing.
type SiteInfo struct {
	Name string
	// Layer is the subsystem that hosts the hook ("wal", "epoch",
	// "live", "sse").
	Layer string
	// Desc is a one-line human summary for -failpoints=list output.
	Desc string
}

// catalog is the static registry of every failpoint site compiled into
// the stack. Keep it in sync with the hook call sites: wal.* hooks
// live in fault.Store (wrapping the WAL's PageStore), the rest call
// Hit from their packages.
var catalog = []SiteInfo{
	{Name: "wal.put", Layer: "wal", Desc: "WAL page append (error fails it, torn lands a prefix, latency delays it)"},
	{Name: "wal.get", Layer: "wal", Desc: "WAL page read during recovery or checkpointing"},
	{Name: "wal.compact", Layer: "wal", Desc: "WAL checkpoint compaction"},
	{Name: "epoch.publish", Layer: "epoch", Desc: "epoch publication after a flush; error defers the publish (reads keep the last epoch)"},
	{Name: "live.notify", Layer: "live", Desc: "registry notifier wake-up; error defers standing-query delivery to the next publish"},
	{Name: "sse.write", Layer: "sse", Desc: "SSE event write; error cuts the stream mid-flight, latency simulates a slow client"},
}

// Sites returns the registered failpoint sites sorted by name.
func Sites() []SiteInfo {
	out := make([]SiteInfo, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// KnownSite reports whether name is a registered failpoint site.
func KnownSite(name string) bool {
	for _, s := range catalog {
		if s.Name == name {
			return true
		}
	}
	return false
}
