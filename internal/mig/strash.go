package mig

// strashTable is the structural-hashing index of an MIG: an open-addressing
// hash table from canonical fanin triples to gate IDs. Gate creation is the
// innermost operation of every rewriting pass, and the previous
// map[strashKey]ID spent most of Maj in runtime map machinery and forced a
// heap allocation per bucket growth; linear probing over two flat slices
// keeps lookups branch-cheap and insertion amortized allocation-free.
//
// ID 0 is the constant node and never names a gate, so it doubles as the
// empty-slot sentinel.
type strashTable struct {
	keys []strashKey
	ids  []ID
	n    int // occupied slots
}

const strashMinSize = 16 // power of two

func newStrashTable() strashTable {
	return strashTable{keys: make([]strashKey, strashMinSize), ids: make([]ID, strashMinSize)}
}

// strashHash mixes the three fanin literals; the multipliers are the
// 64-bit golden-ratio family used by xxHash, with an avalanche finisher so
// sequential IDs spread over the table.
func strashHash(k strashKey) uint64 {
	h := uint64(k[0])*0x9E3779B185EBCA87 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return h
}

func (t *strashTable) lookup(k strashKey) (ID, bool) {
	mask := uint64(len(t.ids) - 1)
	for i := strashHash(k) & mask; ; i = (i + 1) & mask {
		id := t.ids[i]
		if id == 0 {
			return 0, false
		}
		if t.keys[i] == k {
			return id, true
		}
	}
}

// insert adds k -> id; k must not be present. The table grows at 2/3 load
// so probe sequences stay short.
func (t *strashTable) insert(k strashKey, id ID) {
	if 3*(t.n+1) > 2*len(t.ids) {
		t.grow()
	}
	t.place(k, id)
	t.n++
}

func (t *strashTable) place(k strashKey, id ID) {
	mask := uint64(len(t.ids) - 1)
	i := strashHash(k) & mask
	for t.ids[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.ids[i] = k, id
}

func (t *strashTable) grow() { t.resize(2 * len(t.ids)) }

// reserve sizes the table so that it holds n entries without growing.
func (t *strashTable) reserve(n int) {
	size := len(t.ids)
	for 3*n > 2*size {
		size *= 2
	}
	if size > len(t.ids) {
		t.resize(size)
	}
}

// resize rehashes the table into size slots (a power of two).
func (t *strashTable) resize(size int) {
	old := *t
	t.keys = make([]strashKey, size)
	t.ids = make([]ID, size)
	for i, id := range old.ids {
		if id != 0 {
			t.place(old.keys[i], id)
		}
	}
}

func (t *strashTable) clone() strashTable {
	return strashTable{
		keys: append([]strashKey(nil), t.keys...),
		ids:  append([]ID(nil), t.ids...),
		n:    t.n,
	}
}
