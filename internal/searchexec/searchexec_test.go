package searchexec

import (
	"fmt"
	"sync"
	"testing"
)

func TestForEachWritesEverySlot(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			out := make([]int, n)
			ForEach(n, workers, func(i int) { out[i] = i * i })
			for i := range out {
				if out[i] != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, out[i], i*i)
				}
			}
		})
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Error("fn called for n=0")
	}
}

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get on empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	c.Put("c", 3) // evicts b: a was refreshed by the Get above
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a evicted wrongly: %d,%v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("Get(c) = %d,%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Len != 2 || st.Cap != 2 {
		t.Errorf("stats = %+v, want 3 hits / 2 misses / len 2 / cap 2", st)
	}
	if hr := st.HitRate(); hr != 0.6 {
		t.Errorf("HitRate = %v, want 0.6", hr)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: b stays
	c.Put("c", 3)  // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d,%v, want 10,true", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := NewLRU[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

// TestLRUConcurrent hammers the cache from many goroutines; meaningful
// under -race.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*31 + i) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
				}
				c.Put(k, k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}
