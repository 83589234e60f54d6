package mig

// strashTable is the structural-hashing index of an MIG: an open-addressing
// hash table from canonical fanin triples to gate IDs. Gate creation is the
// innermost operation of every rewriting pass, and the previous
// map[strashKey]ID spent most of Maj in runtime map machinery and forced a
// heap allocation per bucket growth; linear probing over two flat slices
// keeps lookups branch-cheap and insertion amortized allocation-free.
//
// ID 0 is the constant node and never names a gate, so it doubles as the
// empty-slot sentinel. The zero table has no slots: it indexes nothing,
// which is how a graph that nothing has probed yet carries no table.
type strashTable struct {
	keys []strashKey
	ids  []ID
	n    int // occupied slots
}

const strashMinSize = 16 // power of two

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

// reserve sizes the table so that it holds n entries without growing. A
// table without slots starts from strashMinSize.
func (t *strashTable) reserve(n int) {
	size := max(len(t.ids), strashMinSize)
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

// fill empties the table, keeping its slots, and indexes every gate of m,
// sized so that room more gates fit without growing. m's triples are
// canonical and distinct (every gate was made by Maj), so each one is
// placed without a lookup.
func (t *strashTable) fill(m *MIG, room int) {
	clear(t.ids)
	t.reserve(m.NumGates() + room)
	for id := m.numPI + 1; id < len(m.fanin); id++ {
		t.place(strashKey(m.fanin[id]), ID(id))
	}
	t.n = m.NumGates()
}

// clone copies the table; a table without slots stays without slots.
func (t *strashTable) clone() strashTable {
	return strashTable{
		keys: append([]strashKey(nil), t.keys...),
		ids:  append([]ID(nil), t.ids...),
		n:    t.n,
	}
}

// Index is a structural-hashing index over the gates of one graph that
// its caller owns instead of the graph: probing a graph through an Index
// reads the graph and nothing else, so goroutines that each own an Index
// may probe one shared graph at once. Reset keeps the slots, so an Index
// reused graph after graph allocates only when a graph outgrows every
// earlier one. The zero Index indexes nothing; Reset it before probing.
type Index struct {
	m *MIG
	t strashTable
}

// Reset indexes the gates of m, replacing whatever x indexed before. The
// index reflects m as it is now; gates added to m later are not in it.
func (x *Index) Reset(m *MIG) {
	x.m = m
	x.t.fill(m, 0)
}

// FindMaj reports what Maj(a, b, c) on the indexed graph would return
// without creating anything: the simplified signal when a majority axiom
// collapses the gate, or the existing gate under the same structural
// normalization. ok is false when the gate would have to be created. The
// rewriter's choice recording uses it to price candidate gates that
// structural hashing will merge for free at commit time.
func (x *Index) FindMaj(a, b, c Lit) (Lit, bool) {
	x.m.checkLit(a)
	x.m.checkLit(b)
	x.m.checkLit(c)
	key, neg, lit, done := majNorm(a, b, c)
	if done {
		return lit, true
	}
	if id, ok := x.t.lookup(key); ok {
		return MakeLit(id, neg), true
	}
	return 0, false
}
