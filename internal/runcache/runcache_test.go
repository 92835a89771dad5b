package runcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// checkConserved asserts the counter law: every Get lands in exactly
// one of hits, misses, dedup waits, poisoned reads and disk hits.
func checkConserved(t *testing.T, s Stats, gets uint64) {
	t.Helper()
	if sum := s.Hits + s.Misses + s.DedupWaits + s.Poisoned + s.DiskHits; sum != gets {
		t.Errorf("%s: hits(%d) + misses(%d) + dedupWaits(%d) + poisoned(%d) + diskHits(%d) = %d, want %d Get calls",
			s.Name, s.Hits, s.Misses, s.DedupWaits, s.Poisoned, s.DiskHits, sum, gets)
	}
}

func TestGetMemoizes(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-memo")
	calls := 0
	f := func() int { calls++; return 42 }
	if got := c.Get("k", f); got != 42 {
		t.Fatalf("first Get = %d, want 42", got)
	}
	if got := c.Get("k", f); got != 42 {
		t.Fatalf("second Get = %d, want 42", got)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit / 1 entry", s)
	}
	checkConserved(t, s, 2)
}

func TestGetDisabledRecomputes(t *testing.T) {
	defer ResetAll()
	defer SetEnabled(true)
	SetEnabled(false)
	c := New[int]("test-disabled")
	calls := 0
	c.Get("k", func() int { calls++; return 1 })
	c.Get("k", func() int { calls++; return 1 })
	if calls != 2 {
		t.Errorf("disabled cache ran compute %d times, want 2", calls)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("disabled cache recorded stats %+v, want zeros", s)
	}
}

// TestSingleFlight checks concurrent Gets for one key run the compute
// exactly once, with every caller seeing the same value.
func TestSingleFlight(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-singleflight")
	var calls atomic.Int64
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get("k", func() int {
				calls.Add(1)
				<-release // hold the computation open so others must wait
				return 7
			})
		}(i)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times under contention, want 1", calls.Load())
	}
	for i, r := range results {
		if r != 7 {
			t.Errorf("worker %d got %d, want 7", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.DedupWaits != workers-1 {
		t.Errorf("hits(%d) + dedupWaits(%d) = %d, want %d", s.Hits, s.DedupWaits, s.Hits+s.DedupWaits, workers-1)
	}
	checkConserved(t, s, workers)
}

// TestCountersConservedUnderContention hammers one persistent cache from
// eight goroutines — keys that compute, keys that panic, and keys a
// previous process left on disk — and checks every Get was counted
// exactly once. Under -race it is the concurrency check for the counters.
func TestCountersConservedUnderContention(t *testing.T) {
	withDisk(t, "v1")
	enc, dec := jsonCodec[int]()
	prev := New[int]("test-conserve").Persist(enc, dec)
	for k := 0; k < 4; k++ {
		prev.Get(fmt.Sprint("disk", k), func() int { return k })
	}
	WaitPersist()
	ResetAll()

	c := New[int]("test-conserve").Persist(enc, dec)
	const workers, rounds = 8, 200
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (i + w) % 12
				key, want := fmt.Sprint("k", n), n
				switch {
				case n < 4:
					key = fmt.Sprint("disk", n)
				case n >= 10:
					key = fmt.Sprint("poison", n)
				}
				func() {
					defer func() {
						if r := recover(); r != nil && n < 10 {
							t.Errorf("Get(%q) panicked: %v", key, r)
						}
					}()
					gets.Add(1)
					if got := c.Get(key, func() int {
						if n >= 10 {
							panic("boom")
						}
						return want
					}); got != want {
						t.Errorf("Get(%q) = %d, want %d", key, got, want)
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	checkConserved(t, s, gets.Load())
	if s.Misses != 8 || s.DiskHits != 4 {
		t.Errorf("stats = %+v, want 8 misses (6 computed, 2 poisoned) and 4 disk hits", s)
	}
}

// TestPoisonedWaitersCountOnce: callers reading (or blocked on) a
// computation that panics count as poisoned reads only — never also as
// dedup waits.
func TestPoisonedWaitersCountOnce(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-poison-waiters")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.Get("k", func() int {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	const waiters = 4
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { recover() }()
			c.Get("k", func() int { return 1 })
		}()
	}
	close(release)
	wg.Wait()
	s := c.Stats()
	if s.Poisoned != waiters || s.DedupWaits != 0 || s.Hits != 0 {
		t.Errorf("stats = %+v, want %d poisoned and no dedup waits or hits", s, waiters)
	}
	checkConserved(t, s, waiters+1)
}

// TestPanicPoisonsEntry checks a panicking computation poisons its key:
// both the owner and later callers panic rather than observe a zero
// value.
func TestPanicPoisonsEntry(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-panic")
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("owner", func() { c.Get("k", func() int { panic("boom") }) })
	mustPanic("later caller", func() { c.Get("k", func() int { return 1 }) })
}

// TestPoisonedReadsAreNotHits pins the stats fix: reads of a poisoned
// entry land in Poisoned, never Hits (the daemon's cache/…/hits metric
// must not overcount panicked keys).
func TestPoisonedReadsAreNotHits(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-poison-stats")
	for i := 0; i < 3; i++ {
		func() {
			defer func() { recover() }()
			c.Get("k", func() int { panic("boom") })
		}()
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Errorf("hits = %d after poisoned reads, want 0", s.Hits)
	}
	if s.Poisoned != 2 {
		t.Errorf("poisoned = %d, want 2 (owner's panic is the miss)", s.Poisoned)
	}
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	checkConserved(t, s, 3)
}

// TestResetDuringGets hammers one cache with concurrent Gets, GetCacheds
// and resets; under -race this is the proof that eviction no longer
// requires "no computations in flight". Values are keyed so a recompute
// after eviction still returns the right answer.
func TestResetDuringGets(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-reset-race")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := string(rune('a' + i%7))
				want := i % 7
				if got := c.Get(key, func() int { return want }); got != want {
					t.Errorf("worker %d: Get(%q) = %d, want %d", w, key, got, want)
					return
				}
				if v, ok := c.GetCached(key); ok && v != want {
					t.Errorf("worker %d: GetCached(%q) = %d, want %d", w, key, v, want)
					return
				}
				c.Put(key, want)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		c.reset()
		ResetAll()
		c.Stats()
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotSorted(t *testing.T) {
	defer ResetAll()
	New[int]("zz-test-b")
	New[int]("aa-test-a")
	snap := Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}
