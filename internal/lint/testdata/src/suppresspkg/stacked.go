package suppresspkg

import (
	"math/rand"
	"time"
)

// Busy triggers two analyzers on one line — nondeterm-rand (a draw from
// math/rand's global state) and wallclock (time.Now) — and both are
// excused by a stacked standalone directive group above it.
func Busy() time.Time {
	//lint:ignore nondeterm-rand fixture stacks two directives over one line
	//lint:ignore wallclock fixture stacks two directives over one line
	return compute(rand.Intn(10), time.Now())
}

// Trailing uses the inline form: the directive sits on the offending
// line itself.
func Trailing() time.Time {
	return time.Now() //lint:ignore wallclock inline trailing directive form
}

func compute(n int, t time.Time) time.Time { return t }
