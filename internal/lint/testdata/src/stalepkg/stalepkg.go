// Package stalepkg is a lint fixture for stale-suppression: a directive
// that suppresses nothing is itself a finding, a typo'd analyzer name can
// never suppress anything, and a //lint:ignore stale-suppression directive
// excuses a known-dormant one but is reported when it excuses none.
package stalepkg

import "time"

// Stamp keeps one live suppression for contrast: the directive is used,
// so it is not reported.
func Stamp() time.Time {
	//lint:ignore wallclock fixture keeps one live suppression for contrast
	return time.Now()
}

// Calm carries a directive over a line with no wallclock finding:
// the directive is stale and reported.
func Calm() int {
	//lint:ignore wallclock nothing on the next line reads the clock
	return 42
}

// Typo names an analyzer that does not exist: reported with the
// unknown-analyzer message.
func Typo() int {
	//lint:ignore wallclocks the analyzer name has a typo
	return 7
}

// Excused stacks a stale-suppression directive over a dormant one: the
// dormant wallclock directive suppresses nothing, but the meta
// directive excuses it, so neither is reported.
func Excused() int {
	//lint:ignore stale-suppression kept dormant while the caller migrates off the clock
	//lint:ignore wallclock the migration will reintroduce time.Now here
	return 9
}

// Needless stacks a stale-suppression directive over a live wallclock
// directive: nothing it covers is dormant, so the meta directive
// excuses nothing and is itself reported.
func Needless() time.Time {
	//lint:ignore stale-suppression the directive below is live, so this excuses nothing
	//lint:ignore wallclock fixture keeps this suppression live
	return time.Now()
}

// Lonely carries a stale-suppression directive over no directive at
// all: reported.
func Lonely() int {
	//lint:ignore stale-suppression nothing on the next line is a directive
	return 11
}
