package experiments

import (
	"testing"

	"xui/internal/runcache"
	"xui/internal/sim"
)

// fixtureStats returns the named fixture cache's counters.
func fixtureStats(t *testing.T, name string) runcache.Stats {
	t.Helper()
	for _, s := range runcache.Snapshot() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no run cache named %s", name)
	return runcache.Stats{}
}

// TestFixtureBuiltOncePerPass: after ResetCaches, a fig8 grid of N points
// builds its route table once and shares it with the other N-1 points —
// serially as N-1 hits, in parallel as hits and dedup waits that still
// add up to one count per point. With caching off nothing is recorded and
// every request builds its own table.
func TestFixtureBuiltOncePerPass(t *testing.T) {
	defer func() {
		SetCaching(true)
		SetWorkers(0)
		ResetCaches()
	}()
	grid := func() int {
		return len(Fig8([]int{1, 2}, []float64{20, 40}, sim.Millisecond))
	}
	for _, workers := range []int{1, 8} {
		SetWorkers(workers)
		ResetCaches()
		n := uint64(grid())
		s := fixtureStats(t, "fixture/lpm")
		if s.Misses != 1 || s.Entries != 1 {
			t.Errorf("-j %d: %+v, want 1 build (miss) and 1 entry", workers, s)
		}
		if s.Hits+s.DedupWaits != n-1 || s.Poisoned != 0 || s.DiskHits != 0 {
			t.Errorf("-j %d: %+v, want the other %d points as hits or dedup waits", workers, s, n-1)
		}
		if workers == 1 && s.DedupWaits != 0 {
			t.Errorf("-j 1: %d dedup waits, want none", s.DedupWaits)
		}
	}
	if routeTable(16000, 7) != routeTable(16000, 7) {
		t.Error("caching on: two requests got different route tables")
	}
	if kvStore(fig7Keys, 5) != kvStore(fig7Keys, 5) {
		t.Error("caching on: two requests got different stores")
	}

	SetCaching(false)
	SetWorkers(1)
	ResetCaches()
	grid()
	if s := fixtureStats(t, "fixture/lpm"); s.Hits+s.Misses+s.DedupWaits != 0 || s.Entries != 0 {
		t.Errorf("caching off: fixture/lpm recorded %+v, want nothing", s)
	}
	if routeTable(100, 7) == routeTable(100, 7) {
		t.Error("caching off: two requests shared one route table")
	}
	if kvStore(10, 5) == kvStore(10, 5) {
		t.Error("caching off: two requests shared one store")
	}
}
