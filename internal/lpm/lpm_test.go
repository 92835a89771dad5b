package lpm

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"xui/internal/sim"
)

func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func TestBasicLookup(t *testing.T) {
	tb := New()
	if _, ok := tb.Lookup(ip4(10, 0, 0, 1)); ok {
		t.Fatalf("empty table matched")
	}
	if err := tb.Add(ip4(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if nh, ok := tb.Lookup(ip4(10, 200, 3, 4)); !ok || nh != 1 {
		t.Errorf("10/8 lookup = %d,%v", nh, ok)
	}
	if _, ok := tb.Lookup(ip4(11, 0, 0, 1)); ok {
		t.Errorf("11.0.0.1 matched 10/8")
	}
}

func TestLongestMatchWins(t *testing.T) {
	tb := New()
	_ = tb.Add(ip4(10, 0, 0, 0), 8, 1)
	_ = tb.Add(ip4(10, 1, 0, 0), 16, 2)
	_ = tb.Add(ip4(10, 1, 2, 0), 24, 3)
	_ = tb.Add(ip4(10, 1, 2, 128), 25, 4)
	_ = tb.Add(ip4(10, 1, 2, 130), 32, 5)
	cases := []struct {
		ip   uint32
		want uint16
	}{
		{ip4(10, 9, 9, 9), 1},
		{ip4(10, 1, 9, 9), 2},
		{ip4(10, 1, 2, 5), 3},
		{ip4(10, 1, 2, 200), 4},
		{ip4(10, 1, 2, 130), 5},
	}
	for _, c := range cases {
		if nh, ok := tb.Lookup(c.ip); !ok || nh != c.want {
			t.Errorf("lookup(%08x) = %d,%v want %d", c.ip, nh, ok, c.want)
		}
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	// Longer-first and shorter-first must give identical results.
	build := func(order [][3]uint32) *Table {
		tb := New()
		for _, r := range order {
			if err := tb.Add(r[0], int(r[1]), uint16(r[2])); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	routes := [][3]uint32{
		{ip4(20, 0, 0, 0), 8, 1},
		{ip4(20, 5, 0, 0), 16, 2},
		{ip4(20, 5, 5, 0), 26, 3},
		{ip4(20, 5, 5, 77), 32, 4},
	}
	rev := make([][3]uint32, len(routes))
	for i := range routes {
		rev[i] = routes[len(routes)-1-i]
	}
	a, b := build(routes), build(rev)
	probes := []uint32{
		ip4(20, 9, 9, 9), ip4(20, 5, 9, 9), ip4(20, 5, 5, 3),
		ip4(20, 5, 5, 77), ip4(20, 5, 5, 120), ip4(20, 5, 5, 200),
	}
	for _, p := range probes {
		na, oa := a.Lookup(p)
		nb, ob := b.Lookup(p)
		if na != nb || oa != ob {
			t.Errorf("order dependence at %08x: %d,%v vs %d,%v", p, na, oa, nb, ob)
		}
	}
}

func TestValidation(t *testing.T) {
	tb := New()
	if err := tb.Add(0, 0, 1); err == nil {
		t.Errorf("length 0 accepted")
	}
	if err := tb.Add(0, 33, 1); err == nil {
		t.Errorf("length 33 accepted")
	}
	if err := tb.Add(0, 8, MaxNextHop+1); err == nil {
		t.Errorf("oversized next hop accepted")
	}
}

// Property: DIR-24-8 agrees with the naive reference on random route sets.
func TestAgainstReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		tb := New()
		var ref Reference
		nRoutes := 1 + rng.Intn(40)
		for i := 0; i < nRoutes; i++ {
			ip := uint32(rng.Uint64())
			length := 1 + rng.Intn(32)
			nh := uint16(rng.Intn(MaxNextHop))
			if err := tb.Add(ip, length, nh); err != nil {
				return false
			}
			ref.Add(ip, length, nh)
		}
		for i := 0; i < 300; i++ {
			var probe uint32
			if rng.Bool(0.5) && nRoutes > 0 {
				// Probe near an installed prefix to stress boundaries.
				probe = ref.prefixes[rng.Intn(len(ref.prefixes))].ip | uint32(rng.Intn(256))
			} else {
				probe = uint32(rng.Uint64())
			}
			nh, ok := tb.Lookup(probe)
			rnh, rok := ref.Lookup(probe)
			if ok != rok {
				return false
			}
			if ok && nh != rnh {
				// Ambiguity: two same-length prefixes covering the probe —
				// both implementations pick "latest added"; mismatch means
				// a real bug.
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGenerateTable(t *testing.T) {
	tb := GenerateTable(16000, 7)
	if tb.Len() < 16000 {
		t.Fatalf("generated %d routes", tb.Len())
	}
	rng := sim.NewRNG(9)
	for i := 0; i < 100000; i++ {
		if _, ok := tb.Lookup(uint32(rng.Uint64())); !ok {
			t.Fatalf("unroutable address with /8 cover present")
		}
	}
}

// TestGeneratedTableReadOnly: a generated table has released its
// build-only depths, so Add must refuse it loudly instead of installing
// routes without longest-prefix bookkeeping.
func TestGeneratedTableReadOnly(t *testing.T) {
	tb := GenerateTable(100, 3)
	if tb.depth24 != nil || tb.depth8 != nil {
		t.Error("GenerateTable kept its build-only depth arrays")
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "read-only") {
			t.Errorf("Add on a generated table: recovered %v, want a read-only panic", r)
		}
	}()
	_ = tb.Add(ip4(10, 0, 0, 0), 8, 1)
}

// TestConcurrentLookup shares one generated table between eight
// goroutines; each must see exactly the serial answers. Under -race this
// is the proof that Lookup never writes.
func TestConcurrentLookup(t *testing.T) {
	tb := GenerateTable(2000, 7)
	rng := sim.NewRNG(11)
	addrs := make([]uint32, 4096)
	want := make([]uint16, len(addrs))
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
		want[i], _ = tb.Lookup(addrs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range addrs {
				j := (i + g*512) % len(addrs)
				if nh, ok := tb.Lookup(addrs[j]); !ok || nh != want[j] {
					t.Errorf("goroutine %d: Lookup(%#x) = %d/%v, want %d", g, addrs[j], nh, ok, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkLookup(b *testing.B) {
	tb := GenerateTable(16000, 7)
	rng := sim.NewRNG(3)
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(addrs[i&4095])
	}
}
