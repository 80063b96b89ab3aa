package isl

import "sync"

// internTable canonicalizes the vectors of one tuple space into dense
// uint32 ids. Every Map and Set of a space shares the space's table
// (see tableFor), so identical tuples always carry identical ids
// and the relation algebra runs on integer ids instead of re-hashing
// string-encoded vectors. Tables are append-only and guarded by an
// RWMutex: lookups take the read lock, first-time interning the write
// lock, so concurrent detection workers share one table safely.
type internTable struct {
	dim    int
	mu     sync.RWMutex
	byHash map[uint64][]uint32 // content hash -> candidate ids
	vecs   []Vec               // id -> canonical vector (a private copy)
}

// hashVec is FNV-1a over the coordinates; allocation-free.
func hashVec(v Vec) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// lookupLocked returns the id of v if already interned. Callers hold
// at least the read lock.
func (t *internTable) lookupLocked(h uint64, v Vec) (uint32, bool) {
	for _, id := range t.byHash[h] {
		if t.vecs[id].Eq(v) {
			return id, true
		}
	}
	return 0, false
}

// lookup returns the id of v without interning it.
func (t *internTable) lookup(v Vec) (uint32, bool) {
	h := hashVec(v)
	t.mu.RLock()
	id, ok := t.lookupLocked(h, v)
	t.mu.RUnlock()
	return id, ok
}

// intern returns the dense id of v together with its canonical vector,
// inserting a private copy on first sight.
func (t *internTable) intern(v Vec) (uint32, Vec) {
	h := hashVec(v)
	t.mu.RLock()
	if id, ok := t.lookupLocked(h, v); ok {
		cv := t.vecs[id]
		t.mu.RUnlock()
		return id, cv
	}
	t.mu.RUnlock()
	t.mu.Lock()
	if id, ok := t.lookupLocked(h, v); ok { // raced with another interner
		cv := t.vecs[id]
		t.mu.Unlock()
		return id, cv
	}
	id := uint32(len(t.vecs))
	cv := v.Clone()
	t.vecs = append(t.vecs, cv)
	t.byHash[h] = append(t.byHash[h], id)
	t.mu.Unlock()
	return id, cv
}

// snapshot returns the table's id → canonical-vector column under one
// read lock. The table is append-only: interning only ever writes at
// indexes at or beyond the snapshot's length, so every id issued
// before the call stays readable through the returned header; ids
// interned later are simply not visible. Relation algebra takes one
// snapshot per operation and then compares vectors with plain
// indexing, lock-free.
func (t *internTable) snapshot() []Vec {
	t.mu.RLock()
	v := t.vecs
	t.mu.RUnlock()
	return v
}

// vec returns the canonical vector of an id. The result is shared and
// must not be modified.
func (t *internTable) vec(id uint32) Vec {
	t.mu.RLock()
	v := t.vecs[id]
	t.mu.RUnlock()
	return v
}

// appendVecs appends the canonical vectors of ids to dst under a
// single read lock.
func (t *internTable) appendVecs(dst []Vec, ids []uint32) []Vec {
	t.mu.RLock()
	for _, id := range ids {
		dst = append(dst, t.vecs[id])
	}
	t.mu.RUnlock()
	return dst
}

// registry maps each space to its intern table. Space values compare
// by (name, dim), so every Map/Set constructor of a space resolves to
// the same table, process-wide.
var (
	registryMu sync.RWMutex
	registry   = make(map[Space]*internTable)
)

func tableFor(sp Space) *internTable {
	registryMu.RLock()
	t, ok := registry[sp]
	registryMu.RUnlock()
	if ok {
		return t
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if t, ok := registry[sp]; ok {
		return t
	}
	t = &internTable{dim: sp.Dim, byHash: make(map[uint64][]uint32)}
	registry[sp] = t
	return t
}
