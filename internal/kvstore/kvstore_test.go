package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"xui/internal/sim"
)

func TestPutGet(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k1"), []byte("v1"))
	st.Put([]byte("k2"), []byte("v2"))
	if v, ok := st.Get([]byte("k1")); !ok || string(v) != "v1" {
		t.Errorf("get k1 = %q,%v", v, ok)
	}
	if _, ok := st.Get([]byte("nope")); ok {
		t.Errorf("missing key found")
	}
	st.Put([]byte("k1"), []byte("v1b"))
	if v, _ := st.Get([]byte("k1")); string(v) != "v1b" {
		t.Errorf("update lost: %q", v)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	st := Open(1)
	st.FlushThreshold = 10
	for i := 0; i < 100; i++ {
		st.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%d", i)))
	}
	if st.Runs() == 0 {
		t.Fatalf("no flushes happened")
	}
	for i := 0; i < 100; i++ {
		v, ok := st.Get([]byte(fmt.Sprintf("key%03d", i)))
		if !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("key%03d = %q,%v", i, v, ok)
		}
	}
}

func TestNewestVersionWinsAcrossRuns(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k"), []byte("old"))
	st.Flush()
	st.Put([]byte("k"), []byte("new"))
	st.Flush()
	if v, _ := st.Get([]byte("k")); string(v) != "new" {
		t.Errorf("got %q, want newest", v)
	}
	// And via scan:
	st.Scan([]byte("k"), 1, func(k, v []byte) {
		if string(v) != "new" {
			t.Errorf("scan got %q", v)
		}
	})
}

func TestScanOrderedAndBounded(t *testing.T) {
	st := Open(1)
	st.FlushThreshold = 7 // force several runs
	for i := 99; i >= 0; i-- {
		st.Put([]byte(fmt.Sprintf("key%03d", i)), []byte{byte(i)})
	}
	var keys []string
	n := st.Scan([]byte("key010"), 25, func(k, v []byte) {
		keys = append(keys, string(k))
	})
	if n != 25 || len(keys) != 25 {
		t.Fatalf("scan returned %d", n)
	}
	if keys[0] != "key010" {
		t.Errorf("scan starts at %q", keys[0])
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("scan unordered: %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Errorf("duplicate key %q", keys[i])
		}
	}
}

func TestScanPastEnd(t *testing.T) {
	st := Open(1)
	st.Put([]byte("a"), []byte("1"))
	n := st.Scan([]byte("z"), 10, func(k, v []byte) {})
	if n != 0 {
		t.Errorf("scan past end returned %d", n)
	}
}

// Property: the store agrees with a plain map + sort on any operation mix.
func TestStoreAgainstMapProperty(t *testing.T) {
	type op struct {
		Put bool
		K   uint8
		V   uint8
	}
	f := func(ops []op, scanStart uint8) bool {
		st := Open(7)
		st.FlushThreshold = 5 // flush aggressively to stress merge paths
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.K)
			if o.Put {
				v := fmt.Sprintf("v%d", o.V)
				st.Put([]byte(k), []byte(v))
				model[k] = v
			} else {
				got, ok := st.Get([]byte(k))
				want, wok := model[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		// Full scan agrees with sorted model contents.
		start := fmt.Sprintf("k%03d", scanStart)
		var wantKeys []string
		for k := range model {
			if k >= start {
				wantKeys = append(wantKeys, k)
			}
		}
		sort.Strings(wantKeys)
		var gotKeys []string
		st.Scan([]byte(start), len(model)+1, func(k, v []byte) {
			gotKeys = append(gotKeys, string(k))
			if model[string(k)] != string(v) {
				wantKeys = nil // force failure
			}
		})
		if len(gotKeys) != len(wantKeys) {
			return false
		}
		for i := range gotKeys {
			if gotKeys[i] != wantKeys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSkiplistScanFromNil(t *testing.T) {
	st := Open(3)
	st.Put([]byte("b"), []byte("2"))
	st.Put([]byte("a"), []byte("1"))
	var got []string
	st.mem.scan(nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("scan(nil) = %v", got)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.GetMean != 2400 {
		t.Errorf("GET mean = %d cycles, want 2400 (1.2 µs)", c.GetMean)
	}
	if c.ScanMean != 1_160_000 {
		t.Errorf("SCAN mean = %d cycles, want 1160000 (580 µs)", c.ScanMean)
	}
	rng := sim.NewRNG(5)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := c.SampleGet(rng)
		if g < 2100 || g > 2700 {
			t.Fatalf("GET sample %d outside ±10%%", g)
		}
		sum += float64(g)
	}
	mean := sum / n
	if mean < 2350 || mean > 2450 {
		t.Errorf("GET sample mean %g", mean)
	}
	if s := c.SampleScan(rng); s < 1_000_000 || s > 1_250_000 {
		t.Errorf("SCAN sample %d", s)
	}
	// Zero jitter is deterministic.
	c.GetJit = 0
	if c.SampleGet(rng) != c.GetMean {
		t.Errorf("zero-jitter sample not exact")
	}
}

func TestValuesAreCopied(t *testing.T) {
	st := Open(1)
	k := []byte("k")
	v := []byte("live")
	st.Put(k, v)
	v[0] = 'X'
	k[0] = 'X'
	if got, ok := st.Get([]byte("k")); !ok || !bytes.Equal(got, []byte("live")) {
		t.Errorf("store aliases caller buffers: %q %v", got, ok)
	}
}

// TestConcurrentReaders shares one filled store — memtable plus several
// flushed runs — between eight goroutines doing Get and Scan, and checks
// each sees the serial answers. Under -race this is the proof that reads
// never mutate the store.
func TestConcurrentReaders(t *testing.T) {
	st := Open(5)
	st.FlushThreshold = 256
	const n = 2000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
		st.Put(keys[i], []byte(fmt.Sprintf("profile-%d", i)))
	}
	if st.Runs() < 2 || st.MemSize() == 0 {
		t.Fatalf("fill left %d runs and %d memtable keys; want both tiers populated", st.Runs(), st.MemSize())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 7 {
				if v, ok := st.Get(keys[i]); !ok || string(v) != fmt.Sprintf("profile-%d", i) {
					t.Errorf("goroutine %d: Get(%s) = %q/%v", g, keys[i], v, ok)
					return
				}
				if i%50 != 0 {
					continue
				}
				next := i
				got := st.Scan(keys[i], 20, func(k, _ []byte) {
					if !bytes.Equal(k, keys[next]) {
						t.Errorf("goroutine %d: Scan from %s visited %s, want %s", g, keys[i], k, keys[next])
					}
					next++
				})
				if want := min(20, n-i); got != want {
					t.Errorf("goroutine %d: Scan from %s visited %d keys, want %d", g, keys[i], got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
