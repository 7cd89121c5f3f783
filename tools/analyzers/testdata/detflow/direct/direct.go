// Package direct is detflow's fixture for direct sources, each reported
// at its own position: every line marked `want` must be flagged, and
// nothing else may be.
package direct

import (
	"math/rand"
	"sort"
	"time"
)

type node struct{ id uint32 }

type ctx struct{}

func (ctx) Send(to uint32, m any)                {}
func (ctx) After(d time.Duration, fn func()) any { return nil }
func (ctx) Now() time.Time                       { return time.Time{} }
func (ctx) Rand() *rand.Rand                     { return nil }

// RecordCommit stands in for a stats sink.
func RecordCommit(n int) {}

func wallClock() {
	_ = time.Now()                                   // want "time.Now reads the wall clock"
	time.Sleep(time.Millisecond)                     // want "time.Sleep"
	_ = time.Since(time.Time{})                      // want "time.Since"
	<-time.After(time.Second)                        // want "time.After"
	_ = time.NewTimer(time.Second)                   // want "time.NewTimer"
	t := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC) // allowed: pure constructor
	_ = t.Add(time.Second)                           // allowed: arithmetic
	_ = time.Duration(5) * time.Second               // allowed
}

func globalRand(c ctx) {
	_ = rand.Intn(10)                  // want "global math/rand.Intn"
	_ = rand.Int63()                   // want "global math/rand.Int63"
	_ = rand.Float64()                 // want "global math/rand.Float64"
	rand.Shuffle(3, func(i, j int) {}) // want "global math/rand.Shuffle"
	// Allowed: instance construction from a seed and use of a seeded
	// source (the env contract's Rand()).
	r := rand.New(rand.NewSource(42))
	_ = r.Intn(10)
	_ = c.Rand()
}

func rawGoroutine(c ctx) {
	go func() {}()        // want "raw goroutine in sim-visible code"
	c.After(0, func() {}) // allowed: scheduled on the node's executor
}

func mapOrderEmission(c ctx, subs map[uint32]bool, m any) {
	for id := range subs { // want "map iteration order feeds Send"
		c.Send(id, m)
	}
	for id := range subs { // want "map iteration order feeds After"
		_ = id
		c.After(time.Millisecond, func() {})
	}
	for range subs { // want "map iteration order feeds Record"
		RecordCommit(1)
	}
	// Allowed: collect, sort, emit outside the map loop.
	ids := make([]uint32, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c.Send(id, m)
	}
	// Allowed: map iteration with no emission in the body.
	total := 0
	for range subs {
		total++
	}
	_ = total
	// Allowed: ranging over a slice while emitting.
	for _, id := range ids {
		c.Send(id, m)
	}
}
