// Package telemetrypkg is a lint fixture: metric registrations that
// violate (and follow) the stage.metric_name convention.
package telemetrypkg

import "github.com/hobbitscan/hobbit/internal/telemetry"

// Register exercises literal and concatenated metric names.
func Register(reg *telemetry.Registry, stage string) {
	reg.Counter("census.scan_pings").Inc()         // ok
	reg.Counter("scanpings").Inc()                 // flagged: single segment
	reg.Gauge("census/responders").Set(1)          // flagged: slash separator
	reg.Histogram("probe."+stage+".pings", nil)    // ok: dotted fragments
	reg.Counter("probe/" + stage + "/pings").Inc() // flagged: slash fragment
	reg.Counter("probe_" + stage).Inc()            // flagged: no dot anywhere

	// Deep dotted names with underscored metrics (the degraded-probing
	// counters) satisfy the convention.
	reg.Counter("probe." + stage + ".degraded_windows").Inc() // ok
	reg.Counter("campaign.degraded_blocks").Inc()             // ok
}
