// Package lpm implements IPv4 longest-prefix-match routing with the
// DIR-24-8 algorithm used by DPDK's librte_lpm — the lookup structure
// behind the paper's l3fwd experiments (§5.4: LPM algorithm, 16,000-entry
// routing table, 64-byte IPv4 UDP packets).
//
// tbl24 resolves the top 24 bits in one access; prefixes longer than /24
// extend into 256-entry tbl8 groups. Lookups are one or two array reads,
// which is why l3fwd spends most of its per-packet cycles outside the
// route lookup.
package lpm

import (
	"fmt"

	"xui/internal/sim"
)

const (
	tbl24Size   = 1 << 24
	tbl8GroupSz = 256

	flagValid   = 1 << 15 // entry holds a route (or a tbl8 index)
	flagGroup   = 1 << 14 // entry points into tbl8
	maskPayload = 1<<14 - 1
)

// Table is a DIR-24-8 LPM table. NextHop values must fit in 14 bits.
//
// A table under construction (New, then Add) is not safe for concurrent
// use. A table built by GenerateTable is read-only: its build-only state
// is released, Add panics on it, and any number of goroutines may call
// Lookup on it concurrently.
type Table struct {
	tbl24 []uint16
	tbl8  []uint16
	// depth24 tracks the prefix length that installed each tbl24 entry, so
	// longer prefixes correctly override shorter ones. Only Add reads the
	// depths; both are nil once the table is read-only.
	depth24 []uint8
	depth8  []uint8
	groups  int
	routes  int
}

// MaxNextHop is the largest routable next-hop identifier.
const MaxNextHop = maskPayload

// New returns an empty table.
func New() *Table {
	return &Table{
		tbl24:   make([]uint16, tbl24Size),
		depth24: make([]uint8, tbl24Size),
	}
}

// Len returns the number of installed routes.
func (t *Table) Len() int { return t.routes }

// Add installs prefix ip/length → nextHop. Longer prefixes override
// shorter ones on overlapping ranges regardless of insertion order. It
// panics on a read-only table (one built by GenerateTable).
func (t *Table) Add(ip uint32, length int, nextHop uint16) error {
	if t.depth24 == nil {
		panic("lpm: Add on a read-only table (GenerateTable released its build state)")
	}
	if length < 1 || length > 32 {
		return fmt.Errorf("lpm: bad prefix length %d", length)
	}
	if nextHop > MaxNextHop {
		return fmt.Errorf("lpm: next hop %d exceeds %d", nextHop, MaxNextHop)
	}
	ip &= prefixMask(length)
	if length <= 24 {
		first := ip >> 8
		count := uint32(1) << (24 - length)
		for i := first; i < first+count; i++ {
			e := t.tbl24[i]
			if e&flagValid != 0 && e&flagGroup != 0 {
				// Range already extended: update group entries covered by
				// this (shorter) prefix where it is the longest match.
				t.updateGroup(int(e&maskPayload), 0, 256, uint8(length), nextHop)
				continue
			}
			if e&flagValid == 0 || t.depth24[i] <= uint8(length) {
				t.tbl24[i] = flagValid | nextHop
				t.depth24[i] = uint8(length)
			}
		}
	} else {
		idx := ip >> 8
		e := t.tbl24[idx]
		var group int
		if e&flagValid != 0 && e&flagGroup != 0 {
			group = int(e & maskPayload)
		} else {
			group = t.newGroup()
			if e&flagValid != 0 {
				// Seed the group with the previous /≤24 route.
				base := group * tbl8GroupSz
				for j := 0; j < tbl8GroupSz; j++ {
					t.tbl8[base+j] = e
					t.depth8[base+j] = t.depth24[idx]
				}
			}
			t.tbl24[idx] = flagValid | flagGroup | uint16(group)
			t.depth24[idx] = 24 // group marker
		}
		lo := int(ip & 0xFF)
		hi := lo + 1<<(32-length)
		t.updateGroup(group, lo, hi, uint8(length), nextHop)
	}
	t.routes++
	return nil
}

func (t *Table) updateGroup(group, lo, hi int, depth uint8, nextHop uint16) {
	base := group * tbl8GroupSz
	for j := lo; j < hi; j++ {
		if t.tbl8[base+j]&flagValid == 0 || t.depth8[base+j] <= depth {
			t.tbl8[base+j] = flagValid | nextHop
			t.depth8[base+j] = depth
		}
	}
}

func (t *Table) newGroup() int {
	t.tbl8 = append(t.tbl8, make([]uint16, tbl8GroupSz)...)
	t.depth8 = append(t.depth8, make([]uint8, tbl8GroupSz)...)
	g := t.groups
	t.groups++
	return g
}

// Lookup returns the next hop for ip. ok is false when no route matches.
func (t *Table) Lookup(ip uint32) (nextHop uint16, ok bool) {
	e := t.tbl24[ip>>8]
	if e&flagValid == 0 {
		return 0, false
	}
	if e&flagGroup == 0 {
		return e & maskPayload, true
	}
	e = t.tbl8[int(e&maskPayload)*tbl8GroupSz+int(ip&0xFF)]
	if e&flagValid == 0 {
		return 0, false
	}
	return e & maskPayload, true
}

func prefixMask(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// GenerateTable builds a routing table with n random prefixes (the
// experiment's 16,000 entries), spread across realistic prefix lengths,
// plus a default-free fallback /8 cover so every address resolves. The
// returned table is read-only: the per-entry prefix depths that only Add
// reads (16 MB) are dropped, so a retained table costs tbl24 and tbl8
// alone and may be shared by concurrent Lookup callers.
func GenerateTable(n int, seed uint64) *Table {
	t := New()
	rng := sim.NewRNG(seed)
	// Cover the space with /8s so lookups always hit.
	for b := 0; b < 256; b++ {
		_ = t.Add(uint32(b)<<24, 8, uint16(b%128))
	}
	lengths := []int{16, 20, 22, 24, 24, 24, 28, 32} // BGP-ish mix, /24 heavy
	for i := 0; i < n; i++ {
		ip := uint32(rng.Uint64())
		l := lengths[rng.Intn(len(lengths))]
		nh := uint16(rng.Intn(MaxNextHop))
		_ = t.Add(ip, l, nh)
	}
	t.depth24, t.depth8 = nil, nil
	return t
}

// Reference is a naive longest-prefix-match used to validate Table in
// property tests.
type Reference struct {
	prefixes []refEntry
}

type refEntry struct {
	ip      uint32
	length  int
	nextHop uint16
}

// Add installs a route.
func (r *Reference) Add(ip uint32, length int, nextHop uint16) {
	r.prefixes = append(r.prefixes, refEntry{ip & prefixMask(length), length, nextHop})
}

// Lookup scans all prefixes for the longest match.
func (r *Reference) Lookup(ip uint32) (uint16, bool) {
	best := -1
	var nh uint16
	for _, p := range r.prefixes {
		// >= so the latest-added route wins among equal-length prefixes,
		// matching Table's update semantics.
		if ip&prefixMask(p.length) == p.ip && p.length >= best {
			best = p.length
			nh = p.nextHop
		}
	}
	return nh, best >= 0
}
