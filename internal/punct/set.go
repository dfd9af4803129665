package punct

import (
	"fmt"
	"strings"

	"pjoin/internal/slab"
	"pjoin/internal/value"
)

// PID identifies a punctuation inside one Set. PIDs are assigned in
// arrival order starting at 1; 0 means "no punctuation" and is the pid of
// unindexed tuples (the paper's null pid, Fig. 2(b)).
type PID uint64

// NoPID is the null pid: the tuple has not been matched to any
// punctuation yet.
const NoPID PID = 0

// Entry is one punctuation held in a Set together with the propagation
// bookkeeping of the paper's punctuation index (Fig. 2(a)): a unique pid,
// the count of state tuples currently matched to it, and whether the
// index-build component has processed it yet.
//
// A Set carves its entries from chunks and zeroes an entry when it leaves
// the set (Remove, or the entry Compact merges away), so a pointer to an
// Entry is valid only while the entry is in its set: read what you need
// before removing it.
type Entry struct {
	PID     PID
	P       Punctuation
	Count   int  // state tuples whose pid == PID
	Indexed bool // index build has assigned tuples to this punctuation

	// ArrivedAt is the stream timestamp (ns, a stream.Time value — this
	// package sits below internal/stream) at which the punctuation
	// arrived at the operator. Propagation records now − ArrivedAt as the
	// punctuation's propagation delay (internal/obs.Lat.PunctDelay).
	ArrivedAt int64

	// Propagated marks an entry that was already released downstream but
	// retained in the set (instead of removed, §3.5) so it keeps serving
	// the purge and drop-on-the-fly rules. Retention keeps a set's
	// membership independent of propagation timing, which hash-partitioned
	// parallel joins need: each partition reaches count zero at its own
	// pace, and an early partition must not lose the punctuation's purge
	// power over later arrivals. See core.Config.RetainPropagated.
	Propagated bool

	// TraceID is the punctuation's provenance trace (internal/obs/span),
	// assigned by the operator at arrival when span tracing is on. Purge
	// and drop attribution resolve the responsible entry and stamp its
	// TraceID on the span; zero when tracing is off.
	TraceID uint64
}

// ExhaustiveOn reports whether the punctuation promises exhaustion of a
// single attribute: "no future tuple whose attribute attr has value v"
// follows from a punctuation only when EVERY other pattern is wildcard
// (otherwise it merely excludes a subset of such tuples). This is the
// precondition for using a punctuation in the cross-stream purge and
// drop-on-the-fly rules, which reason about the join attribute alone.
func (e *Entry) ExhaustiveOn(attr int) bool {
	return exhaustiveOn(e.P, attr)
}

func exhaustiveOn(p Punctuation, attr int) bool {
	if attr >= p.Width() {
		return false
	}
	for i := 0; i < p.Width(); i++ {
		if i == attr {
			continue
		}
		if p.PatternAt(i).Kind() != Wildcard {
			return false
		}
	}
	return true
}

// Set is an arrival-ordered punctuation set PS(T) for one input stream
// (§2.2). It supports the two derived predicates the purge and
// propagation rules need — setMatch and count-to-zero detection — and
// optionally verifies the paper's nested-or-disjoint assumption over the
// join attribute.
type Set struct {
	entries []*Entry
	next    PID
	alloc   slab.Slab[Entry] // NewOnce: a chunk lives while one of its entries does

	// verifyAttr >= 0 enables checking that each newly added punctuation's
	// pattern on that attribute is either disjoint from or a superset of
	// every earlier pattern (§2.2's Ptn_i ∧ Ptn_j ∈ {∅, Ptn_i}).
	verifyAttr int

	// keyAttr >= 0 enables a fast-path index over that attribute for
	// SetMatchAttr/FirstMatchAttr: entries whose key pattern is a
	// constant live in constIdx, the rest in nonConst. Per-tuple set
	// matching (drop-on-the-fly, purge scans) is then O(1) amortised for
	// the common constant-punctuation workloads instead of O(set size).
	keyAttr  int
	constIdx map[value.Value]keyEntries
	nonConst []*Entry

	// byPID resolves pids to entries in O(1); Get is on the per-purged-
	// tuple path (count decrements).
	byPID map[PID]*Entry

	// ents and vals back the slices Unindexed, Propagable and PurgePlan
	// hand out: each such slice is valid until the next of those calls on
	// this set, so handling a punctuation allocates nothing for them.
	ents []*Entry
	vals []value.Value
}

// keyEntries is what constIdx holds per key value: the entries whose key
// pattern is that constant, in arrival order. Nearly every key has exactly
// one, which sits inline; only a repeated key pays for a slice.
type keyEntries struct {
	first *Entry
	more  []*Entry
}

func (k keyEntries) insert(e *Entry) keyEntries {
	if k.first == nil {
		k.first = e
		return k
	}
	if e.PID < k.first.PID {
		e, k.first = k.first, e
	}
	k.more = insertByPID(k.more, e)
	return k
}

func (k keyEntries) remove(e *Entry) keyEntries {
	if k.first != e {
		k.more = removeEntry(k.more, e)
		return k
	}
	if len(k.more) == 0 {
		return keyEntries{}
	}
	k.first = k.more[0]
	k.more = removeEntry(k.more, k.first)
	return k
}

// insertByPID adds e to the pid-ordered es. A newly arrived entry has the
// largest pid, so Add appends; only Compact, whose merged entry keeps an
// earlier pid, inserts further up.
func insertByPID(es []*Entry, e *Entry) []*Entry {
	es = append(es, e)
	for i := len(es) - 1; i > 0 && es[i].PID < es[i-1].PID; i-- {
		es[i], es[i-1] = es[i-1], es[i]
	}
	return es
}

func removeEntry(es []*Entry, e *Entry) []*Entry {
	for i, x := range es {
		if x == e {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// NewSet returns an empty punctuation set with assumption verification
// and key indexing disabled.
func NewSet() *Set {
	return &Set{next: 1, verifyAttr: -1, keyAttr: -1, byPID: make(map[PID]*Entry),
		alloc: slab.NewOnce[Entry](entryChunk)}
}

// entryChunk is how many entries one allocation of a set holds.
const entryChunk = 64

// NewVerifiedSet returns an empty set that checks the nested-or-disjoint
// assumption on join attribute attr for every Add, and indexes that
// attribute for fast SetMatchAttr lookups.
func NewVerifiedSet(attr int) *Set { return NewKeyedSet(attr, true) }

// NewKeyedSet returns an empty set that indexes attribute attr for fast
// SetMatchAttr/FirstMatchAttr lookups; verify additionally enables the
// nested-or-disjoint assumption check on that attribute.
func NewKeyedSet(attr int, verify bool) *Set {
	if attr < 0 {
		panic("punct: NewKeyedSet with negative attribute")
	}
	s := NewSet()
	s.keyAttr, s.constIdx = attr, make(map[value.Value]keyEntries)
	if verify {
		s.verifyAttr = attr
	}
	return s
}

// Len returns the number of punctuations currently in the set.
func (s *Set) Len() int { return len(s.entries) }

// Add appends p to the set, assigning the next pid, and returns its
// entry. If verification is enabled and p violates the nested-or-disjoint
// assumption against an earlier punctuation, Add reports an error and the
// set is unchanged.
func (s *Set) Add(p Punctuation) (*Entry, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("punct: Add of zero punctuation")
	}
	if s.verifyAttr >= 0 {
		if s.verifyAttr >= p.Width() {
			return nil, fmt.Errorf("punct: verified attribute %d out of range for width %d", s.verifyAttr, p.Width())
		}
		np := p.PatternAt(s.verifyAttr)
		for _, e := range s.entries {
			old := e.P.PatternAt(s.verifyAttr)
			// §2.2 requires each pair to be disjoint or nested. A new
			// pattern CONTAINED in an earlier one is also accepted: it
			// is a redundant re-promise (possible when the earlier
			// entry is the union of compacted punctuations) and
			// violates nothing semantically.
			if !np.Disjoint(old) && !np.Contains(old) && !old.Contains(np) {
				return nil, fmt.Errorf("punct: punctuation %s overlaps earlier %s on attribute %d without nesting",
					p, e.P, s.verifyAttr)
			}
		}
	}
	e := &s.alloc.Take(1)[0]
	*e = Entry{PID: s.next, P: p}
	s.next++
	s.entries = append(s.entries, e)
	s.byPID[e.PID] = e
	s.addToIndex(e)
	return e, nil
}

// addToIndex classifies an entry for the keyed fast path, keeping each
// list in arrival (pid) order. Entries that are not exhaustive on the key
// attribute are indexed NOWHERE: they can never satisfy an
// attribute-exhaustion query.
func (s *Set) addToIndex(e *Entry) {
	if s.keyAttr < 0 || !exhaustiveOn(e.P, s.keyAttr) {
		return
	}
	if e.P.PatternAt(s.keyAttr).Kind() == Constant {
		v := e.P.PatternAt(s.keyAttr).ConstVal()
		s.constIdx[v] = s.constIdx[v].insert(e)
	} else {
		s.nonConst = insertByPID(s.nonConst, e)
	}
}

// Entries returns the entries in arrival order. The slice is shared; do
// not append to it.
func (s *Set) Entries() []*Entry { return s.entries }

// Get returns the entry with the given pid, or nil.
func (s *Set) Get(pid PID) *Entry { return s.byPID[pid] }

// Remove deletes the entry with the given pid, preserving arrival order
// of the rest, and reports whether it was present. Propagated
// punctuations "are immediately removed from the punctuation set" (§3.5).
// The entry is zeroed (see Entry).
func (s *Set) Remove(pid PID) bool {
	for i, e := range s.entries {
		if e.PID == pid {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			delete(s.byPID, pid)
			s.dropFromIndex(e)
			*e = Entry{}
			return true
		}
	}
	return false
}

func (s *Set) dropFromIndex(e *Entry) {
	if s.keyAttr < 0 || !exhaustiveOn(e.P, s.keyAttr) {
		return
	}
	if e.P.PatternAt(s.keyAttr).Kind() == Constant {
		v := e.P.PatternAt(s.keyAttr).ConstVal()
		if es := s.constIdx[v].remove(e); es.first == nil {
			delete(s.constIdx, v)
		} else {
			s.constIdx[v] = es
		}
		return
	}
	s.nonConst = removeEntry(s.nonConst, e)
}

// SetMatch implements setMatch(t, PS): whether any punctuation in the set
// matches the tuple's attribute values (§2.2). This is the predicate of
// the purge rules (eq. 1).
//
//pjoin:hotpath
func (s *Set) SetMatch(attrs []value.Value) bool {
	for _, e := range s.entries {
		if e.P.Matches(attrs) {
			return true
		}
	}
	return false
}

// SetMatchAttr reports whether any punctuation promises that no future
// tuple will carry value v in attribute attr. This is the cross-stream
// form of setMatch the purge rules use: a tuple of stream B is purged
// when its join value is exhausted by stream A's punctuation set (§2.2,
// "we only focus on exploiting punctuations over the join attribute").
//
// Only entries exhaustive on attr qualify (every other pattern
// wildcard): a punctuation that also constrains other attributes merely
// excludes a subset of the tuples carrying v, which licenses nothing.
//
//pjoin:hotpath
func (s *Set) SetMatchAttr(attr int, v value.Value) bool {
	return s.FirstMatchAttr(attr, v) != nil
}

// FirstMatchAttr returns the earliest-arrived entry that exhausts value
// v on attribute attr (see SetMatchAttr), or nil. When attr is the
// set's indexed key attribute the lookup is O(1) plus the number of
// non-constant patterns.
//
//pjoin:hotpath
func (s *Set) FirstMatchAttr(attr int, v value.Value) *Entry {
	if attr != s.keyAttr {
		for _, e := range s.entries {
			if exhaustiveOn(e.P, attr) && e.P.PatternAt(attr).Matches(v) {
				return e
			}
		}
		return nil
	}
	best := s.constIdx[v].first // the earliest-arrived constant on v, if any
	for _, e := range s.nonConst {
		if best != nil && e.PID >= best.PID {
			break // nonConst is in arrival order; nothing earlier follows
		}
		if e.P.PatternAt(attr).Matches(v) {
			best = e
			break
		}
	}
	return best
}

// FirstMatch returns the earliest-arrived entry whose punctuation matches
// the tuple, or nil. The punctuation index always assigns a tuple "the
// pid of the first arrived punctuation found to be matched" (§3.5).
//
//pjoin:hotpath
func (s *Set) FirstMatch(attrs []value.Value) *Entry {
	for _, e := range s.entries {
		if e.P.Matches(attrs) {
			return e
		}
	}
	return nil
}

// MaxPID returns the largest pid assigned so far (NoPID if the set has
// never held an entry). PIDs are assigned in arrival order, so together
// with PurgePlan's `after` parameter this supports incremental purge
// watermarks.
func (s *Set) MaxPID() PID { return s.next - 1 }

// PurgePlan partitions the entries usable for purging on attribute attr
// — those exhaustive on attr (see SetMatchAttr) — into values that can
// be purged by direct key-group lookup (Constant patterns and
// Enumeration members) and entries that require a state scan (Range and
// Wildcard patterns). Entries with PID <= after are skipped: a caller
// that knows the state holds no tuple matching them (e.g. because a
// previous purge run removed them and drop-on-the-fly has kept matching
// arrivals out since) passes its watermark to plan only the new
// punctuations. Pass NoPID to plan over the whole set. Entries are
// PID-sorted, so the plan costs O(log n + new entries). Both slices are
// the set's scratch: valid until the next PurgePlan, Unindexed or
// Propagable on this set.
//
//pjoin:hotpath
func (s *Set) PurgePlan(attr int, after PID) (direct []value.Value, scan []*Entry) {
	lo, hi := 0, len(s.entries)
	for lo < hi { // first entry with PID > after
		mid := int(uint(lo+hi) >> 1)
		if s.entries[mid].PID <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	direct, scan = s.vals[:0], s.ents[:0]
	for _, e := range s.entries[lo:] {
		if !exhaustiveOn(e.P, attr) {
			continue
		}
		switch p := e.P.PatternAt(attr); p.kind {
		case Constant:
			direct = append(direct, p.lo)
		case Enum:
			direct = append(direct, p.set...)
		case Empty:
			// Matches nothing; no purge power.
		default: // Range, Wildcard
			scan = append(scan, e)
		}
	}
	s.vals, s.ents = direct, scan
	return direct, scan
}

// Unindexed returns the entries not yet processed by index build, in
// arrival order (the pIndexSet of Fig. 3, lines 2-6). The slice is the
// set's scratch: valid until the next Unindexed, Propagable or PurgePlan
// on this set.
//
//pjoin:hotpath
func (s *Set) Unindexed() []*Entry {
	out := s.ents[:0]
	for _, e := range s.entries {
		if !e.Indexed {
			out = append(out, e)
		}
	}
	s.ents = out
	return out
}

// Propagable returns the indexed entries whose count is zero, that no
// earlier entry still holding tuples overlaps (held), and that have not
// been released yet: by Theorem 1 these punctuations can be propagated
// downstream now. final says the operator emits no further result (its
// inputs ended and its left-over joins are done), so nothing can follow
// a release and held entries go too. Entries retained after propagation
// (Entry.Propagated) are excluded so they are released at most once. The
// slice is the set's scratch: valid until the next Propagable, Unindexed
// or PurgePlan on this set (Remove does not disturb the slice; it zeroes
// the entry).
//
//pjoin:hotpath
func (s *Set) Propagable(final bool) []*Entry {
	out := s.ents[:0]
	for i, e := range s.entries {
		if e.Indexed && e.Count == 0 && !e.Propagated && (final || !s.held(i)) {
			out = append(out, e)
		}
	}
	s.ents = out
	return out
}

// held reports whether an entry that arrived before entries[i] still
// counts state tuples and overlaps it. Index build gives a tuple the pid
// of the first punctuation it matches, so a tuple matching a nested or
// overlapping later punctuation counts toward the earlier one, and the
// later one's zero count does not show it.
func (s *Set) held(i int) bool {
	e := s.entries[i]
	for _, f := range s.entries[:i] {
		if f.Count > 0 && f.P.overlaps(e.P) {
			return true
		}
	}
	return false
}

// String renders the set as "{pid:punct#count, ...}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%s#%d", e.PID, e.P, e.Count)
	}
	b.WriteByte('}')
	return b.String()
}
