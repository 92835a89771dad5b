package experiments

import (
	"fmt"

	"xui/internal/kvstore"
	"xui/internal/lpm"
	"xui/internal/runcache"
)

// Shared read-only fixtures for the Tier-2 grids. A fixture is a pure
// function of its parameters, so it is built through a memory-only run
// cache rather than a package global: every grid point of a sweep (and
// every shard goroutine inside one) shares a single instance, while
// ResetCaches drops it and SetCaching(false) makes every point build its
// own — a cold pass pays exactly the one build a fresh process pays.
// Fixtures are never mutated after construction; their packages document
// which methods are safe to call concurrently on a built instance
// (lpm.Table.Lookup, kvstore.Store.Get and Scan).

// routeTables memoizes generated DIR-24-8 route tables (fig8's l3fwd
// core and the scale experiments' edge forwarders).
var routeTables = runcache.New[*lpm.Table]("fixture/lpm")

// kvStores memoizes populated key-value stores (fig7's RocksDB stand-in).
var kvStores = runcache.New[*kvFixture]("fixture/kvstore")

// routeTable returns the read-only table lpm.GenerateTable(n, seed)
// builds.
func routeTable(n int, seed uint64) *lpm.Table {
	return routeTables.Get(fmt.Sprintf("routes=%d|seed=%d", n, seed), func() *lpm.Table {
		return lpm.GenerateTable(n, seed)
	})
}

// kvFixture is a store filled with n ordered keys "user%08d" → values
// "profile-%d", plus the key bytes themselves so request paths index
// them instead of formatting one per request. Both are read-only.
type kvFixture struct {
	store *kvstore.Store
	keys  [][]byte
}

// kvStore returns the read-only fixture of n keys in a store opened
// with seed.
func kvStore(n int, seed uint64) *kvFixture {
	return kvStores.Get(fmt.Sprintf("keys=%d|seed=%d", n, seed), func() *kvFixture {
		f := &kvFixture{store: kvstore.Open(seed), keys: make([][]byte, n)}
		for i := range f.keys {
			f.keys[i] = []byte(fmt.Sprintf("user%08d", i))
			f.store.Put(f.keys[i], []byte(fmt.Sprintf("profile-%d", i)))
		}
		return f
	})
}
