package main

import (
	"sync"
	"testing"
)

// TestGetgIdentifiesGoroutines checks that getg is stable within a
// goroutine and distinct across live ones. On amd64 it reads the runtime's
// thread-local goroutine pointer, so this catches a change of that layout.
func TestGetgIdentifiesGoroutines(t *testing.T) {
	const n = 8
	ids := make([]uintptr, n)
	var started, release sync.WaitGroup
	started.Add(n)
	release.Add(1)
	var done sync.WaitGroup
	for i := range ids {
		done.Add(1)
		go func() {
			defer done.Done()
			ids[i] = getg()
			started.Done()
			release.Wait() // keep every goroutine alive until all have an id
			if again := getg(); again != ids[i] {
				t.Errorf("goroutine %d: getg changed from %#x to %#x", i, ids[i], again)
			}
		}()
	}
	started.Wait()
	release.Done()
	done.Wait()
	seen := map[uintptr]bool{getg(): true}
	for i, id := range ids {
		if id == 0 || seen[id] {
			t.Errorf("goroutine %d: getg %#x is zero or shared", i, id)
		}
		seen[id] = true
	}
}
