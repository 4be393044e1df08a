// Package sim provides a deterministic discrete-event simulation engine
// used as the substrate for the IBA fabric model.
//
// Time is kept as an integer count of picoseconds so that byte times on a
// 2.5 Gb/s InfiniBand 1x link (3200 ps per byte) are exact and runs are
// bit-reproducible across platforms. Events scheduled for the same instant
// fire in scheduling order, which makes every simulation deterministic for
// a fixed seed.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest time the engine represents. A period or window
// whose end would pass it wraps negative, so its owner's Validate refuses
// it rather than let Schedule see a time before now.
const MaxTime = Time(math.MaxInt64)

// Microseconds returns t as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "12.8ns" or "3.456us".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond || t <= -Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}
