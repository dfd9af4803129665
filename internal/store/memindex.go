package store

import (
	"pjoin/internal/punct"
	"pjoin/internal/slab"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// This file implements the key-grouped memory index of a bucket: an
// open-addressing hash table over the full 64-bit value hash (with
// equality confirmation) whose entries are per-key group chains, plus a
// bucket-global arrival-ordered list threaded across the groups.
//
// Layout per bucket:
//
//	slots  ──▶ [ *group | tombstone | nil | ... ]     open addressing
//	group  ──▶ key, hash, chain head/tail, size
//	node   ──▶ one stored tuple; linked twice:
//	             gprev/gnext  — its group's chain (arrival order per key)
//	             aprev/anext  — the bucket's arrival list (global order)
//
// Probing a key resolves its group in O(1) expected and yields exactly
// the matching tuples; purging an exhausted key unlinks one whole group;
// prefix expiry walks the arrival list, and because every group chain is
// a suborder of the arrival list, each expired node is its group's head
// — both removals stay O(1) per tuple.

// slabChunk is the chunk length of the per-State allocator: one
// allocation amortised over this many group nodes or groups. A surviving
// element keeps its whole chunk reachable; the join results
// (stream.ResultSlab) are chunked the same way and accept the same
// bounded amplification.
//
// StoredTuple wrappers, one per tuple the state holds, come in chunks of
// storedChunk instead: Go (≥ 1.22) puts an 8-byte header in front of a
// pointerful object larger than 512 B, so 255 × 32 + 8 = 8,168 B fit the
// 8,192 B size class (32.1 B per wrapper), where 256 wrappers would take
// the 9,472 B class.
const (
	slabChunk   = 256
	storedChunk = 255
)

// alloc is the per-State allocator: everything is carved from slabs that
// forget a chunk once it is carved up (slab.NewOnce). StoredTuple
// wrappers are never recycled — they escape the memory index (purge
// buffers, disk reads, probe results hold them), so reuse would risk
// aliasing; a chunk is garbage once its last wrapper is. Group nodes and
// groups never leave the index, so they go on free lists (a recycled one
// is still a pointer into its chunk).
type alloc struct {
	stored     slab.Slab[StoredTuple]
	nodes      slab.Slab[groupNode]
	groups     slab.Slab[group]
	freeNodes  *groupNode // chained through anext
	freeGroups *group     // chained through free
}

func newAlloc() alloc {
	return alloc{
		stored: slab.NewOnce[StoredTuple](storedChunk),
		nodes:  slab.NewOnce[groupNode](slabChunk),
		groups: slab.NewOnce[group](slabChunk),
	}
}

func (a *alloc) newStored(t *stream.Tuple, ats stream.Time) *StoredTuple {
	s := &a.stored.Take(1)[0]
	*s = StoredTuple{T: t, PID: punct.NoPID, ATS: ats, DTS: InMemory}
	return s
}

func (a *alloc) newNode() *groupNode {
	if n := a.freeNodes; n != nil {
		a.freeNodes = n.anext
		*n = groupNode{}
		return n
	}
	return &a.nodes.Take(1)[0]
}

func (a *alloc) freeNode(n *groupNode) {
	*n = groupNode{anext: a.freeNodes}
	a.freeNodes = n
}

func (a *alloc) newGroup() *group {
	if g := a.freeGroups; g != nil {
		a.freeGroups = g.free
		*g = group{}
		return g
	}
	return &a.groups.Take(1)[0]
}

func (a *alloc) freeGroup(g *group) {
	*g = group{free: a.freeGroups}
	a.freeGroups = g
}

// groupNode holds one memory-resident tuple in a bucket.
type groupNode struct {
	s            *StoredTuple
	aprev, anext *groupNode // bucket arrival list
	gprev, gnext *groupNode // group chain
	g            *group
}

// group is one join key's chain of memory-resident tuples, in arrival
// order. slot is its current position in the index's slot array
// (maintained by insert and rehash) so emptying a group needs no probe.
type group struct {
	hash       uint64
	key        value.Value
	head, tail *groupNode
	n          int
	slot       int
	free       *group // free-list link
}

// tombstone marks a slot whose group was removed; probes skip it,
// inserts may reuse it.
var tombstone = &group{}

// memIndex is the key-grouped index of one bucket's memory portion.
// The zero value is an empty index.
type memIndex struct {
	slots   []*group
	ngroups int
	tombs   int
	ntuples int

	ahead, atail *groupNode // arrival list ends
}

// lookup returns the group for key (with hash h), or nil.
func (m *memIndex) lookup(key value.Value, h uint64) *group {
	if len(m.slots) == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		g := m.slots[i]
		if g == nil {
			return nil
		}
		if g != tombstone && g.hash == h && g.key.Equal(key) {
			return g
		}
	}
}

// insert appends s (key key, full hash h) to its group, creating the
// group if needed, and to the arrival list. It reports whether a new
// group was created.
func (m *memIndex) insert(al *alloc, key value.Value, h uint64, s *StoredTuple) bool {
	if (m.ngroups+m.tombs+1)*4 > len(m.slots)*3 {
		m.rehash()
	}
	mask := uint64(len(m.slots) - 1)
	reuse := -1
	var g *group
	for i := h & mask; ; i = (i + 1) & mask {
		c := m.slots[i]
		if c == nil {
			if reuse < 0 {
				reuse = int(i)
			}
			break
		}
		if c == tombstone {
			if reuse < 0 {
				reuse = int(i)
			}
			continue
		}
		if c.hash == h && c.key.Equal(key) {
			g = c
			break
		}
	}
	created := false
	if g == nil {
		g = al.newGroup()
		g.hash, g.key, g.slot = h, key, reuse
		if m.slots[reuse] == tombstone {
			m.tombs--
		}
		m.slots[reuse] = g
		m.ngroups++
		created = true
	}

	n := al.newNode()
	n.s = s
	n.g = g
	// Group chain tail (arrival order within the key).
	n.gprev = g.tail
	if g.tail != nil {
		g.tail.gnext = n
	} else {
		g.head = n
	}
	g.tail = n
	g.n++
	// Arrival list tail (global order).
	n.aprev = m.atail
	if m.atail != nil {
		m.atail.anext = n
	} else {
		m.ahead = n
	}
	m.atail = n
	m.ntuples++
	return created
}

// rehash grows the slot array (or rebuilds at the same size to shed
// tombstones when live groups are sparse).
func (m *memIndex) rehash() {
	size := 8
	if len(m.slots) > 0 {
		size = len(m.slots)
		if m.ngroups*2 >= len(m.slots) {
			size *= 2
		}
	}
	old := m.slots
	//pjoin:allow hotpath table growth doubles, so the rehash allocation amortizes to O(1) per insert
	m.slots = make([]*group, size)
	m.tombs = 0
	mask := uint64(size - 1)
	for _, g := range old {
		if g == nil || g == tombstone {
			continue
		}
		i := g.hash & mask
		for m.slots[i] != nil {
			i = (i + 1) & mask
		}
		m.slots[i] = g
		g.slot = int(i)
	}
}

// unlink removes node n from its group chain and the arrival list,
// freeing the group when it empties. It reports whether the group was
// removed. n itself is NOT freed (callers may still need n.anext; they
// free it).
func (m *memIndex) unlink(al *alloc, n *groupNode) (groupGone bool) {
	g := n.g
	if n.gprev != nil {
		n.gprev.gnext = n.gnext
	} else {
		g.head = n.gnext
	}
	if n.gnext != nil {
		n.gnext.gprev = n.gprev
	} else {
		g.tail = n.gprev
	}
	g.n--
	if n.aprev != nil {
		n.aprev.anext = n.anext
	} else {
		m.ahead = n.anext
	}
	if n.anext != nil {
		n.anext.aprev = n.aprev
	} else {
		m.atail = n.aprev
	}
	m.ntuples--
	if g.n == 0 {
		m.slots[g.slot] = tombstone
		m.tombs++
		m.ngroups--
		al.freeGroup(g)
		return true
	}
	return false
}

// takeGroup removes key's entire group, appending its tuples to dst in
// arrival order (dst comes back unchanged if the key has no group).
func (m *memIndex) takeGroup(al *alloc, key value.Value, h uint64, dst []*StoredTuple) []*StoredTuple {
	g := m.lookup(key, h)
	if g == nil {
		return dst
	}
	for n := g.head; n != nil; {
		next := n.gnext
		dst = append(dst, n.s)
		// Unlink from the arrival list; the group chain dies wholesale.
		if n.aprev != nil {
			n.aprev.anext = n.anext
		} else {
			m.ahead = n.anext
		}
		if n.anext != nil {
			n.anext.aprev = n.aprev
		} else {
			m.atail = n.aprev
		}
		al.freeNode(n)
		n = next
	}
	m.ntuples -= g.n
	m.slots[g.slot] = tombstone
	m.tombs++
	m.ngroups--
	al.freeGroup(g)
	return dst
}

// reset empties the index, recycling all nodes and groups but keeping
// the slot array's capacity for the bucket's next life (post-spill).
func (m *memIndex) reset(al *alloc) {
	for n := m.ahead; n != nil; {
		next := n.anext
		al.freeNode(n)
		n = next
	}
	for i, g := range m.slots {
		if g != nil && g != tombstone {
			al.freeGroup(g)
		}
		m.slots[i] = nil
	}
	m.ngroups, m.tombs, m.ntuples = 0, 0, 0
	m.ahead, m.atail = nil, nil
}
