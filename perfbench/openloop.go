package main

import (
	"math/rand"
	"time"
)

// openLoop issues n operations on one connection lane, operation i due
// at start + i/rate. A generator goroutine releases each operation at
// its due time and records how late it ran; the lane executes them in
// order, one at a time, so an operation waits behind a slow predecessor
// and op — which times from due — counts that wait.
func openLoop(n int, rate float64, op func(i int, due time.Time)) (lag Timings) {
	type item struct {
		i   int
		due time.Time
	}
	queue := make(chan item, n) // sized to the number of sends: the generator never blocks
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lag.Add(time.Since(due))
			queue <- item{i, due}
		}
		close(queue)
	}()
	for it := range queue {
		op(it.i, it.due)
	}
	return lag
}

// shuffled returns a seeded permutation of a.
func shuffled[T any](a []T, seed int64) []T {
	out := append([]T(nil), a...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
