package heap

import "sync/atomic"

// ForwardTable maps the word offsets of relocated objects on one evacuated
// page to their new addresses. It is a lock-free open-addressing hash table
// sized for the page's live-object count; the CAS that claims a slot is the
// linearization point for the mutator-vs-GC relocation race described in
// §2.2 (RE) of the paper: whoever wins the CAS has relocated the object,
// losers discard their copy and adopt the winner's address.
type ForwardTable struct {
	keys []atomic.Uint64 // offset+1; 0 = empty
	vals []atomic.Uint64 // new address; 0 = claim in progress
	mask uint64
	used atomic.Int64
}

// NewForwardTable builds a table with capacity for at least n entries.
// The table never resizes; callers size it from the page's live-object
// count which is exact after marking.
func NewForwardTable(n int) *ForwardTable {
	capacity := 16
	for capacity < n*2 {
		capacity *= 2
	}
	return &ForwardTable{
		keys: make([]atomic.Uint64, capacity),
		vals: make([]atomic.Uint64, capacity),
		mask: uint64(capacity - 1),
	}
}

// hashOffset mixes a word offset into a probe start index.
func hashOffset(off uint64) uint64 {
	off ^= off >> 16
	off *= 0x9e3779b97f4a7c15
	return off ^ off>>32
}

// Insert records that the object at word offset off now lives at newAddr.
// It returns the address that ends up in the table and whether this caller
// won the race (won=false means another thread already inserted; the
// returned address is theirs and the caller must discard its copy).
func (t *ForwardTable) Insert(off uint64, newAddr uint64) (addr uint64, won bool) {
	key := off + 1
	i := hashOffset(off) & t.mask
	for {
		k := t.keys[i].Load()
		if k == key {
			return t.waitVal(i), false
		}
		if k == 0 {
			if t.keys[i].CompareAndSwap(0, key) {
				t.vals[i].Store(newAddr)
				t.used.Add(1)
				return newAddr, true
			}
			continue // re-examine the slot we lost
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the forwarded address for off, or 0 if the object has not
// been relocated (yet). Remap fast path: alloc-free.
//
//hcsgc:alloc-free
func (t *ForwardTable) Lookup(off uint64) uint64 {
	key := off + 1
	i := hashOffset(off) & t.mask
	for {
		k := t.keys[i].Load()
		if k == 0 {
			return 0
		}
		if k == key {
			return t.waitVal(i)
		}
		i = (i + 1) & t.mask
	}
}

// waitVal spins until the claimant of slot i has published its value.
// The publish follows the claim immediately, so the spin is bounded by one
// goroutine preemption in practice.
func (t *ForwardTable) waitVal(i uint64) uint64 {
	for {
		if v := t.vals[i].Load(); v != 0 {
			return v
		}
	}
}

// ForEach calls fn for every inserted (offset, forwarded address) pair, in
// table order. Entries whose value is still being published (claim won,
// value store pending) are reported with addr 0; under STW — the only place
// the verifier walks tables — no claim can be in flight, so a zero there is
// itself an anomaly worth reporting.
func (t *ForwardTable) ForEach(fn func(off, addr uint64)) {
	for i := range t.keys {
		k := t.keys[i].Load()
		if k == 0 {
			continue
		}
		fn(k-1, t.vals[i].Load())
	}
}

// Len returns the number of inserted entries.
func (t *ForwardTable) Len() int { return int(t.used.Load()) }

// Cap returns the table's slot capacity.
func (t *ForwardTable) Cap() int { return len(t.keys) }
