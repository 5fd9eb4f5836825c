package cache

// mshr tracks one outstanding line fill. New builds all cfg.MSHRs of them
// up front and the cache recycles them through a free list, so neither a
// miss nor a back-pressured retry of one allocates.
type mshr struct {
	lineAddr int64
	req      int // requester that allocated the miss (merges ride along)
	waiters  []func()
	dirty    bool // a write merged into this fill

	fill func() // the backend completion, built once in New
	next *mshr  // free-list link
}

// mshrTable indexes the outstanding MSHRs by line address: open
// addressing with linear probing over a power-of-two slot array kept at
// most half full. A Go map churned by ever-new line addresses regrows
// from time to time; this table never allocates after New.
type mshrTable struct {
	slots []*mshr // nil marks an empty slot
	shift uint    // 64 - log2(len(slots))
}

func newMSHRTable(n int) mshrTable {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	return mshrTable{slots: make([]*mshr, 1<<bits), shift: 64 - bits}
}

// home is la's preferred slot. Line addresses are strided, so a
// multiplicative (Fibonacci) hash spreads them over the top bits.
//
//rhlint:hotpath
func (t *mshrTable) home(la int64) int {
	return int(uint64(la) * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the MSHR filling la, or nil.
//
//rhlint:hotpath
func (t *mshrTable) get(la int64) *mshr {
	mask := len(t.slots) - 1
	for i := t.home(la); ; i = (i + 1) & mask {
		if m := t.slots[i]; m == nil || m.lineAddr == la {
			return m
		}
	}
}

// put indexes m; its line must not be indexed yet.
//
//rhlint:hotpath
func (t *mshrTable) put(m *mshr) {
	mask := len(t.slots) - 1
	i := t.home(m.lineAddr)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = m
}

// remove unindexes la, which must be indexed. Each later entry of the
// probe run moves back into the hole unless that would place it before
// its home slot, so every lookup still meets its entry before an empty
// slot.
//
//rhlint:hotpath
func (t *mshrTable) remove(la int64) {
	mask := len(t.slots) - 1
	i := t.home(la)
	for t.slots[i].lineAddr != la {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		// The entry at j stays put when its home lies cyclically in (i, j].
		h := t.home(t.slots[j].lineAddr)
		if (i < j && i < h && h <= j) || (j < i && (i < h || h <= j)) {
			continue
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = nil
}
