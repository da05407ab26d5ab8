// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an event heap. Model code runs
// either as plain scheduled callbacks or as processes: coroutines that hand
// control back to the kernel whenever they block (Sleep, Wait, queue pops).
// Exactly one of the kernel loop or a single process runs at any instant,
// so simulations are fully deterministic for a given seed and are safe
// without additional locking.
//
// All of BMcast's simulated hardware (disks, controllers, NICs, the network)
// and software (guest OS, VMM, mediators, servers) is built on this package.
package sim

import "fmt"

// Time is an instant on the simulation clock, in nanoseconds since the
// start of the run. The zero Time is the beginning of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds reports d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second || d <= -Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond || d <= -Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// DurationOf converts a floating-point number of seconds to a Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

// RateDuration returns the time needed to move n bytes at rate bytes/sec.
func RateDuration(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSec * float64(Second))
}
