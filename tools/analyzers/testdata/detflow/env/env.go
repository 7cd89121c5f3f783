// Package env plays the trusted-runtime role for the detflow fixture:
// its import path carries the exempt "env" segment, so its own wall-clock
// reads are never reported — which is exactly how a wall-clock read hides
// behind one call. detflow follows taint out of it into sim-visible
// callers.
package env

import (
	"math/rand"
	"time"
)

// WallStamp reads the wall clock (legitimate inside env; tainting for
// sim-visible callers).
func WallStamp() int64 { return time.Now().UnixNano() }

// Jitter draws from the global math/rand source.
func Jitter() int { return rand.Intn(16) }

// Clock is the sanctioned time boundary, mirroring env.Context: taint
// must NOT flow through calls dispatched via this interface.
type Clock interface {
	Now() int64
}

// SysClock implements Clock over the wall clock.
type SysClock struct{}

// Now implements Clock.
func (SysClock) Now() int64 { return WallStamp() }
