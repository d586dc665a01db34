package searchexec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(0..n-1) across a bounded worker pool and blocks until
// every call returns. workers <= 0 sizes the pool by GOMAXPROCS; with one
// worker the loop runs inline. Results must be written by fn into
// caller-owned slots indexed by i, which keeps output order deterministic
// regardless of scheduling.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
