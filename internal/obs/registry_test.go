package obs

import (
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	var r Registry // zero value is ready to use
	c := r.Counter("acquires")
	c.Inc()
	c.Add(2)
	if r.Counter("acquires") != c || c.Value() != 3 {
		t.Fatalf("counter not shared by name: %d", c.Value())
	}
	if r.Counter("other") == c {
		t.Fatal("distinct names share a counter")
	}
}

func TestRegistryConcurrentResolve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("shared").Value(); v != 8000 {
		t.Fatalf("concurrent increments lost: %d", v)
	}
}
