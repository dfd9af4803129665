package punct

import (
	"fmt"
	"slices"
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
// A Set zeroes an entry when it leaves the set (it retired: see
// Set.Applied) and hands it out again to a later Add, so a pointer to an
// Entry is valid only while the entry is in its set: read what you need
// before the call that can retire it (Release, Applied, Unmatch). A
// retired key's lookup answers with the set's closed entry (Retired).
//
// Count may be raised directly (a tuple takes the entry's pid); lowering
// it goes through Set.Unmatch and setting Indexed through
// Set.MarkIndexed, which are where an entry can become propagable.
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

	// Propagated marks an entry already released downstream (Set.Release).
	// It stays in force — §3.5 removes it at once — so it keeps serving
	// the purge and drop-on-the-fly rules until it retires. That keeps a
	// set's promises independent of propagation timing, which
	// hash-partitioned parallel joins need: each partition reaches count
	// zero at its own pace, and an early partition must not lose the
	// punctuation's purge power over later arrivals.
	Propagated bool

	// TraceID is the punctuation's provenance trace (internal/obs/span),
	// assigned by the operator at arrival when span tracing is on. Purge
	// and drop attribution resolve the responsible entry and stamp its
	// TraceID on the span; zero when tracing is off.
	TraceID uint64

	cand bool // on the set's candidate list (Set.cands)
}

// Retired reports whether e is a set's closed entry (Set.FirstMatchAttr):
// no punctuation, trace or lifecycle, and a Count nothing reads.
func (e *Entry) Retired() bool { return e.P.IsZero() }

// exhaustiveOn looks at p's window only: every pattern outside it is
// the wildcard.
func exhaustiveOn(p Punctuation, attr int) bool {
	if attr >= p.Width() {
		return false
	}
	for i, pat := range p.pats() {
		if i+int(p.off) != attr && pat.kind != Wildcard {
			return false
		}
	}
	return true
}

// Set is an arrival-ordered punctuation set PS(T) for one input stream
// (§2.2). It supports the two derived predicates the purge and
// propagation rules need — setMatch and count-to-zero detection — and
// optionally verifies the paper's nested-or-disjoint assumption over the
// join attribute. Each per-punctuation operation costs the entries that
// can answer it, not the set's size (see the fields).
//
// An entry has one lifecycle: it arrives (Add), is indexed, counts down,
// is released downstream (Release) and stays in force until it owes
// nothing; then it retires, and its key pattern joins the set's Closed
// intervals if it is exhaustive on the key (see Applied). So the set
// holds what is still owed plus a few intervals, not everything that
// ever arrived.
type Set struct {
	entries []*Entry // in pid (arrival) order
	next    PID
	alloc   slab.Slab[Entry] // NewOnce: a chunk lives while one of its entries does
	free    []*Entry         // zeroed entries retirement dropped, for Add to reuse

	// NoRelease says nothing will ever be released from this set (its
	// operator does not propagate), so an entry owes no release.
	NoRelease bool
	// OnRetire, when set, sees each entry that leaves the set, just
	// before it is zeroed.
	OnRetire func(*Entry)
	// applied is the Applied watermark: the opposite side's purge has
	// applied every entry with a pid at or below it.
	applied PID

	// closed holds the retired entries' key patterns, all closedWidth
	// wide; hit, with the latest retired pid, answers for them.
	closed      Closed
	closedWidth int
	hit         Entry

	// verify enables checking that each newly added punctuation's pattern
	// on the key attribute is either disjoint from or a superset of every
	// earlier pattern (§2.2's Ptn_i ∧ Ptn_j ∈ {∅, Ptn_i}).
	verify bool

	// keyAttr >= 0 enables an index over that attribute, every list in
	// pid order: entries exhaustive on it whose pattern there is a
	// constant live in constIdx, the other exhaustive ones in nonConst,
	// and the entries that are not exhaustive on it in partial. An entry
	// whose key pattern is the constant v can meet — match a tuple with
	// key v, or overlap a punctuation pinning the key to v — only the
	// entries of constIdx[v], nonConst and partial, so per-tuple set
	// matching (drop-on-the-fly, purge scans, relocation) and the held
	// check are O(1) amortised for the common constant-punctuation
	// workloads instead of O(set size).
	keyAttr  int
	constIdx map[value.Key]keyEntries
	nonConst []*Entry
	partial  []*Entry

	// cands holds, in pid order, every indexed entry whose count is zero
	// and that is not propagated: what Propagable walks. Unmatch and
	// MarkIndexed put an entry on it; an entry whose count was raised or
	// that was marked propagated since stays on it until Propagable next
	// walks past and drops it.
	cands []*Entry

	// unidx is the unindexed watermark: every entry with a smaller pid is
	// indexed, so Unindexed starts its walk there.
	unidx PID

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
		k.more = removeByPID(k.more, e)
		return k
	}
	if len(k.more) == 0 {
		return keyEntries{}
	}
	k.first = k.more[0]
	k.more = removeByPID(k.more, k.first)
	return k
}

// searchPID returns the index of the first of the pid-ordered es whose
// pid is at least pid (len(es) if none).
func searchPID(es []*Entry, pid PID) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].PID < pid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertByPID adds e to the pid-ordered es.
func insertByPID(es []*Entry, e *Entry) []*Entry {
	return slices.Insert(es, searchPID(es, e.PID), e)
}

// removeByPID deletes e from the pid-ordered es, if it is there.
func removeByPID(es []*Entry, e *Entry) []*Entry {
	if i := searchPID(es, e.PID); i < len(es) && es[i] == e {
		return slices.Delete(es, i, i+1)
	}
	return es
}

// NewSet returns an empty punctuation set with assumption verification
// and key indexing disabled.
func NewSet() *Set {
	return &Set{next: 1, unidx: 1, keyAttr: -1, alloc: slab.NewOnce[Entry](entryChunk)}
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
	s.keyAttr, s.constIdx, s.verify = attr, make(map[value.Key]keyEntries), verify
	s.closed = NewClosed(attr)
	return s
}

// Len returns the number of punctuations in the set, retired ones not
// counted.
func (s *Set) Len() int { return len(s.entries) }

// ClosedLen returns the number of intervals the retired keys make.
func (s *Set) ClosedLen() int { return s.closed.Len() }

// Add appends p to the set, assigning the next pid, and returns its
// entry. If verification is enabled and p violates the nested-or-disjoint
// assumption against an earlier punctuation, Add reports an error and the
// set is unchanged.
func (s *Set) Add(p Punctuation) (*Entry, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("punct: Add of zero punctuation")
	}
	if s.verify {
		if s.keyAttr >= p.Width() {
			return nil, fmt.Errorf("punct: verified attribute %d out of range for width %d", s.keyAttr, p.Width())
		}
		if old := s.unnested(p.PatternAt(s.keyAttr)); old != nil {
			return nil, fmt.Errorf("punct: punctuation %s overlaps earlier %s on attribute %d without nesting",
				p, old.P, s.keyAttr)
		}
	}
	var e *Entry
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = &s.alloc.Take(1)[0]
	}
	*e = Entry{PID: s.next, P: p}
	s.next++
	s.entries = append(s.entries, e)
	s.addToIndex(e)
	return e, nil
}

// unnested returns the earliest entry whose key pattern np neither
// avoids nor nests with (§2.2 requires each pair to be disjoint or
// nested; a new pattern CONTAINED in an earlier one is also accepted: it
// is a redundant re-promise and violates nothing semantically), or nil.
// A constant, wildcard or empty pattern on either side always passes —
// a constant meets a pattern only by lying inside it — so only a range or
// enumeration np is checked, and only against the entries whose key
// pattern can be one: nonConst and partial. Retired entries are not
// checked: no tuple with a key they closed can follow, so a punctuation
// overlapping them promises nothing new there; and one that closed
// nothing (not exhaustive on the key) counts no tuple, so a punctuation
// overlapping it counts the tuples they share itself. Every entry of a
// verified set is wide enough to have a key pattern (Add checks).
func (s *Set) unnested(np Pattern) (first *Entry) {
	if np.kind != Range && np.kind != Enum {
		return nil
	}
	for _, es := range [2][]*Entry{s.nonConst, s.partial} {
		for _, e := range es {
			if first != nil && e.PID >= first.PID {
				break
			}
			if old := e.P.PatternAt(s.keyAttr); !np.Disjoint(old) && !np.Contains(old) && !old.Contains(np) {
				first = e
				break
			}
		}
	}
	return first
}

// addToIndex files an entry under the key index, keeping each list in
// pid order.
func (s *Set) addToIndex(e *Entry) {
	switch {
	case s.keyAttr < 0:
	case !exhaustiveOn(e.P, s.keyAttr):
		s.partial = insertByPID(s.partial, e)
	case e.P.PatternAt(s.keyAttr).Kind() == Constant:
		v := e.P.PatternAt(s.keyAttr).lo.Key()
		s.constIdx[v] = s.constIdx[v].insert(e)
	default:
		s.nonConst = insertByPID(s.nonConst, e)
	}
}

func (s *Set) dropFromIndex(e *Entry) {
	switch {
	case s.keyAttr < 0:
	case !exhaustiveOn(e.P, s.keyAttr):
		s.partial = removeByPID(s.partial, e)
	case e.P.PatternAt(s.keyAttr).Kind() == Constant:
		v := e.P.PatternAt(s.keyAttr).lo.Key()
		if es := s.constIdx[v].remove(e); es.first == nil {
			delete(s.constIdx, v)
		} else {
			s.constIdx[v] = es
		}
	default:
		s.nonConst = removeByPID(s.nonConst, e)
	}
}

// Entries returns the entries in arrival order. The slice is shared; do
// not append to it.
func (s *Set) Entries() []*Entry { return s.entries }

// Get returns the entry with the given pid, or nil.
//
//pjoin:hotpath
func (s *Set) Get(pid PID) *Entry {
	if i := searchPID(s.entries, pid); i < len(s.entries) && s.entries[i].PID == pid {
		return s.entries[i]
	}
	return nil
}

// drop takes e out of the set for good — off the entries, the key index
// and the candidate list — shows it to OnRetire, zeroes it and keeps it
// for Add (see Entry).
func (s *Set) drop(e *Entry) {
	s.entries = removeByPID(s.entries, e)
	s.dropFromIndex(e)
	if e.cand {
		s.cands = removeByPID(s.cands, e)
	}
	if s.OnRetire != nil {
		s.OnRetire(e)
	}
	*e = Entry{}
	s.free = append(s.free, e)
}

// Release records that e, an entry Propagable returned, was propagated
// downstream. It stays in force until it owes nothing, then retires (see
// Applied).
func (s *Set) Release(e *Entry) {
	e.Propagated = true
	s.settle(e)
}

// Applied records that the opposite side's purge has applied every entry
// with a pid up to pid: the opposite state holds no tuple they match, and
// its caller keeps it so (drop-on-the-fly). An entry owes nothing once
// its count is zero, it is released (or NoRelease is set) and it is
// applied. Such an entry retires: it leaves the set, and its key pattern
// joins the set's Closed intervals (runs of per-key constants become one
// interval). Only entries that owe nothing retire, so no output
// punctuation changes, and the union of the set's promises never
// shrinks.
//
// An entry not exhaustive on the key retires without a trace in Closed
// (see settle). Exhaustive entries not as wide as those retired before,
// and every entry of an unkeyed set, stay. The caller applies
// outside a disk pass: a pass bounds its disk purge by the pids present
// when a bucket opened, and a retired key's pid is at most the watermark
// (see FirstMatchAttr).
func (s *Set) Applied(pid PID) {
	pid = min(pid, s.MaxPID()) // a later Add is not applied yet
	for s.applied < pid {
		i := searchPID(s.entries, s.applied+1)
		if i == len(s.entries) || s.entries[i].PID > pid {
			s.applied = pid
			return
		}
		e := s.entries[i]
		s.applied = e.PID
		s.settle(e)
	}
}

// owesNothing reports whether e can retire (see Applied).
func (s *Set) owesNothing(e *Entry) bool {
	return e.Count == 0 && (e.Propagated || s.NoRelease) && e.PID <= s.applied
}

// settle retires e if it owes nothing. An entry exhaustive on the key
// leaves its key pattern in closed. One that is not leaves nothing: the
// join asks the set only about its key, and FirstMatchAttr and
// PurgePlan pass such an entry by, so it never purged or dropped a
// tuple. Retired, it no longer gives FirstMatch a pid for a tuple that
// matches it, which only a stream breaking its promise sends, nor takes
// part in unnested's check.
func (s *Set) settle(e *Entry) {
	if s.keyAttr < 0 || !s.owesNothing(e) {
		return
	}
	if exhaustiveOn(e.P, s.keyAttr) {
		if s.closedWidth != 0 && e.P.Width() != s.closedWidth {
			return
		}
		s.closed.Add(e.P)
		s.closedWidth = e.P.Width()
		s.hit = Entry{PID: max(s.hit.PID, e.PID), Indexed: true, Propagated: true}
	}
	s.drop(e)
}

// MarkIndexed records that index build has processed e.
//
//pjoin:hotpath
func (s *Set) MarkIndexed(e *Entry) {
	e.Indexed = true
	s.noteCandidate(e)
}

// Unmatch records that a state tuple carrying pid left the state: the
// entry's count falls by one (never below zero; a pid no longer in the
// set is ignored). An entry it leaves owing nothing retires (its count
// rose after release, which only a stream that breaks its punctuations
// causes).
//
//pjoin:hotpath
func (s *Set) Unmatch(pid PID) {
	if e := s.Get(pid); e != nil && e.Count > 0 {
		e.Count--
		s.noteCandidate(e)
		s.settle(e)
	}
}

// noteCandidate puts e on the candidate list if it qualifies and is not
// there yet.
func (s *Set) noteCandidate(e *Entry) {
	if e.Count == 0 && e.Indexed && !e.Propagated && !e.cand {
		e.cand = true
		s.cands = insertByPID(s.cands, e)
	}
}

// SetMatch implements setMatch(t, PS): whether any punctuation in the set
// matches the tuple's attribute values (§2.2). This is the predicate of
// the purge rules (eq. 1).
//
//pjoin:hotpath
func (s *Set) SetMatch(attrs []value.Value) bool {
	return s.FirstMatch(attrs) != nil
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
// non-constant patterns, and then one binary search of the retired keys.
//
// A retired key answers with the set's closed entry (Entry.Retired),
// whose pid is the latest retired one, unless a live match arrived
// earlier: at most the Applied watermark, then, as is any retired pid.
//
//pjoin:hotpath
func (s *Set) FirstMatchAttr(attr int, v value.Value) *Entry {
	var best *Entry
	if attr != s.keyAttr {
		for _, e := range s.entries {
			if exhaustiveOn(e.P, attr) && e.P.PatternAt(attr).Matches(v) {
				best = e
				break
			}
		}
		// Only a retired wildcard closes the other attributes.
		if s.closedFirst(best) && s.closed.all && attr < s.closedWidth {
			return &s.hit
		}
		return best
	}
	best = s.constIdx[v.Key()].first // the earliest-arrived constant on v, if any
	for _, e := range s.nonConst {
		if best != nil && e.PID >= best.PID {
			break // nonConst is in arrival order; nothing earlier follows
		}
		if e.P.PatternAt(attr).Matches(v) {
			best = e
			break
		}
	}
	if s.closedFirst(best) && s.closed.Has(v) {
		return &s.hit
	}
	return best
}

// closedFirst reports whether the retired keys may answer a lookup whose
// live match, best, is nil or arrived after every retired entry.
func (s *Set) closedFirst(best *Entry) bool {
	return s.hit.PID != NoPID && (best == nil || best.PID > s.hit.PID)
}

// FirstMatch returns the earliest-arrived entry whose punctuation matches
// the tuple, or nil. The punctuation index always assigns a tuple "the
// pid of the first arrived punctuation found to be matched" (§3.5). A
// keyed set looks at the entries filed under the tuple's key and at the
// non-constant and partial ones only.
//
// A retired key answers with the set's closed entry, as FirstMatchAttr
// does: shared by every lookup, it must not count a tuple.
//
//pjoin:hotpath
func (s *Set) FirstMatch(attrs []value.Value) *Entry {
	if s.keyAttr < 0 || s.keyAttr >= len(attrs) {
		return firstMatchIn(s.entries, nil, attrs)
	}
	key := attrs[s.keyAttr]
	k := s.constIdx[key.Key()]
	best := k.first
	if best != nil && !best.P.Matches(attrs) {
		best = firstMatchIn(k.more, nil, attrs)
	}
	best = firstMatchIn(s.nonConst, best, attrs)
	best = firstMatchIn(s.partial, best, attrs)
	if s.closedFirst(best) && len(attrs) == s.closedWidth && s.closed.Has(key) {
		return &s.hit
	}
	return best
}

// firstMatchIn returns the earliest of the pid-ordered es that arrived
// before best (any, if best is nil) and matches the tuple, or best.
func firstMatchIn(es []*Entry, best *Entry, attrs []value.Value) *Entry {
	for _, e := range es {
		if best != nil && e.PID >= best.PID {
			break
		}
		if e.P.Matches(attrs) {
			return e
		}
	}
	return best
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
	direct, scan = s.vals[:0], s.ents[:0]
	for _, e := range s.entries[searchPID(s.entries, after+1):] {
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
// arrival order (the pIndexSet of Fig. 3, lines 2-6). It walks from the
// earliest unindexed entry, found by binary search, so when index build
// marks every entry it is handed — as it does — a call costs O(log n +
// unindexed entries). The slice is the set's scratch: valid until the
// next Unindexed, Propagable or PurgePlan on this set.
//
//pjoin:hotpath
func (s *Set) Unindexed() []*Entry {
	out := s.ents[:0]
	for _, e := range s.entries[searchPID(s.entries, s.unidx):] {
		if !e.Indexed {
			out = append(out, e)
		}
	}
	s.unidx = s.next
	if len(out) > 0 {
		s.unidx = out[0].PID
	}
	s.ents = out
	return out
}

// Propagable returns the indexed entries whose count is zero, that no
// earlier entry still holding tuples overlaps (held), and that have not
// been released yet: by Theorem 1 these punctuations can be propagated
// downstream now. final says the operator emits no further result (its
// inputs ended and its left-over joins are done), so nothing can follow
// a release and held entries go too. Released entries (Entry.Propagated)
// are excluded so they are released at most once. Only the candidate
// list is walked, so a call costs the entries pending release, not the
// set. The slice is the set's scratch: valid until the next Propagable,
// Unindexed or PurgePlan on this set (Release does not disturb the slice;
// an entry it retires is zeroed, and only released entries retire).
//
//pjoin:hotpath
func (s *Set) Propagable(final bool) []*Entry {
	out, keep := s.ents[:0], s.cands[:0]
	for _, e := range s.cands {
		if e.Count > 0 || e.Propagated {
			e.cand = false // back on the list when Unmatch takes it to zero
			continue
		}
		keep = append(keep, e)
		if final || !s.held(e) {
			out = append(out, e)
		}
	}
	clear(s.cands[len(keep):])
	s.cands, s.ents = keep, out
	return out
}

// held reports whether an entry that arrived before e still counts state
// tuples and overlaps it. Index build gives a tuple the pid of the first
// punctuation it matches, so a tuple matching a nested or overlapping
// later punctuation counts toward the earlier one, and the later one's
// zero count does not show it. When e pins the key to a constant, only
// the entries filed under that constant, nonConst and partial can overlap
// it; otherwise every earlier entry is tried.
func (s *Set) held(e *Entry) bool {
	if s.keyAttr < 0 || s.keyAttr >= e.P.Width() || e.P.PatternAt(s.keyAttr).kind != Constant {
		return heldIn(s.entries, e)
	}
	k := s.constIdx[e.P.PatternAt(s.keyAttr).lo.Key()]
	return holds(k.first, e) || heldIn(k.more, e) || heldIn(s.nonConst, e) || heldIn(s.partial, e)
}

// heldIn reports whether one of the pid-ordered es holds e (see held).
func heldIn(es []*Entry, e *Entry) bool {
	for _, f := range es {
		if f.PID >= e.PID {
			return false
		}
		if holds(f, e) {
			return true
		}
	}
	return false
}

// holds reports whether f (nil for none) arrived before e, counts tuples
// and overlaps e.
func holds(f, e *Entry) bool {
	return f != nil && f.PID < e.PID && f.Count > 0 && f.P.overlaps(&e.P)
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
