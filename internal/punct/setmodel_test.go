package punct

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pjoin/internal/value"
)

// modelEntry is one entry of setModel.
type modelEntry struct {
	pid                 PID
	p                   Punctuation
	count               int
	indexed, propagated bool
}

// setModel is a brute-force Set: every question is answered by a walk
// over all entries in arrival order, the definitions a Set had before it
// kept a candidate list, an unindexed watermark and the key index's
// partial list. A retired entry leaves the list and its key pattern
// joins closed, which lookups walk too, where the set keeps intervals.
type setModel struct {
	es        []*modelEntry
	next      PID
	verify    int // key attribute checked for nesting, -1 for none
	key       int // key attribute entries retire on, -1 for none (unkeyed)
	noRelease bool
	applied   PID

	closed      []Pattern // the key patterns of the retired entries
	closedWidth int       // how wide they all are
	closedPID   PID       // the latest retired pid
}

func (m *setModel) find(pid PID) (int, *modelEntry) {
	for i, e := range m.es {
		if e.pid == pid {
			return i, e
		}
	}
	return -1, nil
}

func modelOverlaps(p, q Punctuation) bool {
	if p.Width() != q.Width() {
		return false
	}
	for i := 0; i < p.Width(); i++ {
		if p.PatternAt(i).Disjoint(q.PatternAt(i)) {
			return false
		}
	}
	return true
}

func (m *setModel) add(p Punctuation) error {
	if a := m.verify; a >= 0 {
		if a >= p.Width() {
			return fmt.Errorf("punct: verified attribute %d out of range for width %d", a, p.Width())
		}
		np := p.PatternAt(a)
		for _, e := range m.es {
			old := e.p.PatternAt(a)
			if !np.Disjoint(old) && !np.Contains(old) && !old.Contains(np) {
				return fmt.Errorf("punct: punctuation %s overlaps earlier %s on attribute %d without nesting", p, e.p, a)
			}
		}
	}
	m.next++
	m.es = append(m.es, &modelEntry{pid: m.next, p: p})
	return nil
}

func (m *setModel) String() string {
	var b strings.Builder
	for _, e := range m.es {
		fmt.Fprintf(&b, "%d:%s#%d ", e.pid, e.p, e.count)
	}
	return b.String()
}

func (m *setModel) unmatch(pid PID) {
	if _, e := m.find(pid); e != nil && e.count > 0 {
		e.count--
		m.settle(e)
	}
}

func (m *setModel) owesNothing(e *modelEntry) bool {
	return e.count == 0 && (e.propagated || m.noRelease) && e.pid <= m.applied
}

func (m *setModel) release(pid PID) {
	_, e := m.find(pid)
	e.propagated = true
	m.settle(e)
}

func (m *setModel) appliedTo(pid PID) {
	pid = min(pid, m.next)
	for m.applied < pid {
		var next *modelEntry
		for _, e := range m.es {
			if e.pid > m.applied {
				next = e
				break
			}
		}
		if next == nil || next.pid > pid {
			m.applied = pid
			return
		}
		m.applied = next.pid
		m.settle(next)
	}
}

// settle retires e if it owes nothing and, when it is exhaustive on the
// key, is as wide as the entries retired before it; only an exhaustive
// entry's key pattern joins closed.
func (m *setModel) settle(e *modelEntry) {
	if m.key < 0 || !m.owesNothing(e) {
		return
	}
	exhaustive := exhaustiveOn(e.p, m.key)
	if exhaustive && m.closedWidth != 0 && e.p.Width() != m.closedWidth {
		return
	}
	i, _ := m.find(e.pid)
	m.es = append(m.es[:i], m.es[i+1:]...)
	if exhaustive {
		m.closed = append(m.closed, e.p.PatternAt(m.key))
		m.closedWidth = e.p.Width()
		m.closedPID = max(m.closedPID, e.pid)
	}
}

func (m *setModel) propagable(final bool) []PID {
	var out []PID
	for i, e := range m.es {
		if !e.indexed || e.count != 0 || e.propagated {
			continue
		}
		held := false
		for _, f := range m.es[:i] {
			held = held || f.count > 0 && modelOverlaps(f.p, e.p)
		}
		if final || !held {
			out = append(out, e.pid)
		}
	}
	return out
}

func (m *setModel) unindexed() []PID {
	var out []PID
	for _, e := range m.es {
		if !e.indexed {
			out = append(out, e.pid)
		}
	}
	return out
}

// firstMatch and firstMatchAttr answer with the earliest live match, or
// with the latest retired pid when a retired punctuation matches too and
// the live match is not earlier than every retired one.
func (m *setModel) firstMatch(attrs []value.Value) PID {
	var best PID
	for _, e := range m.es {
		if e.p.Matches(attrs) {
			best = e.pid
			break
		}
	}
	if m.closedFirst(best) && len(attrs) == m.closedWidth {
		for _, c := range m.closed {
			if MustKeyOnly(m.closedWidth, m.key, c).Matches(attrs) {
				return m.closedPID
			}
		}
	}
	return best
}

func (m *setModel) firstMatchAttr(attr int, v value.Value) PID {
	var best PID
	for _, e := range m.es {
		if exhaustiveOn(e.p, attr) && e.p.PatternAt(attr).Matches(v) {
			best = e.pid
			break
		}
	}
	if m.closedFirst(best) {
		for _, c := range m.closed {
			if p := MustKeyOnly(m.closedWidth, m.key, c); exhaustiveOn(p, attr) && p.PatternAt(attr).Matches(v) {
				return m.closedPID
			}
		}
	}
	return best
}

func (m *setModel) closedFirst(best PID) bool {
	return m.closedPID != NoPID && (best == NoPID || best > m.closedPID)
}

// randPunct draws a punctuation over small int domains: mostly two wide,
// its key pattern (attribute key) a constant, enumeration, range,
// wildcard or, rarely, empty, and in one in four a constant elsewhere,
// which makes it not exhaustive on the key.
func randPunct(r *rand.Rand, key int) Punctuation {
	width := 2
	if r.Intn(10) == 0 {
		width = 1 + 2*r.Intn(2)
	}
	pats := make([]Pattern, width)
	for i := range pats {
		pats[i] = Star()
		if i != key && r.Intn(4) == 0 {
			pats[i] = Const(iv(int64(r.Intn(4))))
		}
	}
	if key < width {
		switch n := r.Intn(100); {
		case n < 50:
			pats[key] = Const(iv(int64(r.Intn(10))))
		case n < 65:
			pats[key] = MustEnum(iv(int64(r.Intn(10))), iv(int64(r.Intn(10))), iv(int64(r.Intn(10))))
		case n < 85:
			lo := int64(r.Intn(10))
			pats[key] = MustRange(iv(lo), iv(lo+int64(r.Intn(4))))
		case n < 98:
			pats[key] = Star()
		default:
			pats[key] = None()
		}
	}
	return MustNew(pats...)
}

// TestSetAgreesWithModel drives seeded random operation sequences — add
// (constant, enumeration, range, wildcard and non-exhaustive keys, some
// narrower or wider than the rest), mark indexed one entry or the whole
// of Unindexed, raise and lower counts, apply up to a pid, propagate with
// and without final, releasing what Propagable returns — against
// setModel, and after every step holds Propagable, Unindexed, Get,
// FirstMatch, FirstMatchAttr and the entries themselves to it, the
// retired keys included, and the set's closed intervals to Closed's
// canonical form. Sets of four shapes: unkeyed, keyed on attribute 0,
// keyed and verified on 0, keyed on 1 (so narrow punctuations have no key
// pattern); in half the seeds the set has NoRelease.
func TestSetAgreesWithModel(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	for seed := 1; seed <= seeds; seed++ {
		if err := runSetModel(int64(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runSetModel(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	s, m, key := NewSet(), &setModel{verify: -1, key: -1}, 0
	switch seed % 4 {
	case 1:
		s, m.key = NewKeyedSet(0, false), 0
	case 2:
		s, m.verify, m.key = NewKeyedSet(0, true), 0, 0
	case 3:
		s, m.key, key = NewKeyedSet(1, false), 1, 1
	}
	s.NoRelease, m.noRelease = seed%8 >= 4, seed%8 >= 4
	retired := map[*Entry]bool{}
	s.OnRetire = func(e *Entry) { retired[e] = true }
	seen := map[*Entry]bool{} // every entry pointer Add handed out
	peak := 0
	pick := func() PID { // a pid in the set, or now and then one that is not
		if len(m.es) == 0 || r.Intn(8) == 0 {
			return PID(r.Intn(int(m.next) + 2))
		}
		return m.es[r.Intn(len(m.es))].pid
	}
	for step := 0; step < 300; step++ {
		var what string
		switch op := r.Intn(100); {
		case op < 30:
			p := randPunct(r, key)
			what = "add " + p.String()
			e, err := s.Add(p)
			merr := m.add(p)
			if (err == nil) != (merr == nil) || err != nil && err.Error() != merr.Error() {
				return fmt.Errorf("step %d, %s: Add error %v, model %v", step, what, err, merr)
			}
			if err == nil {
				seen[e] = true
			}
		case op < 38:
			what = "mark one indexed"
			if _, me := m.find(pick()); me != nil && !me.indexed {
				me.indexed = true
				s.MarkIndexed(s.Get(me.pid))
			}
		case op < 46:
			what = "index all"
			if err := samePIDs("Unindexed", s.Unindexed(), m.unindexed()); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			for _, e := range s.Unindexed() {
				s.MarkIndexed(e)
				_, me := m.find(e.PID)
				me.indexed = true
			}
		case op < 62:
			pid := pick()
			what = fmt.Sprintf("count up %d", pid)
			if _, me := m.find(pid); me != nil {
				me.count++
				s.Get(pid).Count++
			}
		case op < 80:
			pid := pick()
			what = fmt.Sprintf("count down %d", pid)
			m.unmatch(pid)
			s.Unmatch(pid)
		case op < 88:
			pid := PID(r.Intn(int(m.next) + 2))
			what = fmt.Sprintf("applied %d", pid)
			m.appliedTo(pid)
			s.Applied(pid)
		default:
			final := r.Intn(6) == 0
			what = fmt.Sprintf("propagate final=%v", final)
			got := s.Propagable(final)
			if err := samePIDs("Propagable", got, m.propagable(final)); err != nil {
				return fmt.Errorf("step %d, %s: %v", step, what, err)
			}
			for _, e := range got {
				if m.noRelease {
					break // nothing is released from such a set
				}
				m.release(e.PID)
				s.Release(e)
			}
		}
		for e := range retired {
			if e.PID != NoPID || !e.P.IsZero() {
				return fmt.Errorf("step %d, %s: retired entry left as pid %d %s", step, what, e.PID, e.P)
			}
			delete(retired, e)
		}
		peak = max(peak, s.Len())
		if err := checkSetModel(r, s, m); err != nil {
			return fmt.Errorf("step %d, after %s: %v\nset   %s\nmodel %s", step, what, err, s, m)
		}
	}
	// Every entry that left was kept for a later Add: the set handed out
	// no more entries than it ever held at once.
	if len(seen) > peak {
		return fmt.Errorf("%d entries handed out for a peak of %d: removed entries are not reused", len(seen), peak)
	}
	return nil
}

func samePIDs(what string, got []*Entry, want []PID) error {
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].PID == want[i]
	}
	if !ok {
		pids := make([]PID, len(got))
		for i, e := range got {
			pids[i] = e.PID
		}
		return fmt.Errorf("%s = %v, model %v", what, pids, want)
	}
	return nil
}

// checkSetModel holds the set's state and lookups to the model's.
func checkSetModel(r *rand.Rand, s *Set, m *setModel) error {
	if s.Len() != len(m.es) {
		return fmt.Errorf("Len %d, model %d", s.Len(), len(m.es))
	}
	for i, e := range s.Entries() {
		me := m.es[i]
		if e.PID != me.pid || !e.P.Equal(me.p) || e.Count != me.count || e.Indexed != me.indexed || e.Propagated != me.propagated {
			return fmt.Errorf("entry %d = pid %d %s #%d indexed=%v propagated=%v, model pid %d %s #%d indexed=%v propagated=%v",
				i, e.PID, e.P, e.Count, e.Indexed, e.Propagated, me.pid, me.p, me.count, me.indexed, me.propagated)
		}
	}
	for pid := PID(0); pid <= m.next+1; pid++ {
		e := s.Get(pid)
		_, me := m.find(pid)
		if (e == nil) != (me == nil) || e != nil && e.PID != pid {
			return fmt.Errorf("Get(%d) = %v, model has it: %v", pid, e, me != nil)
		}
	}
	if err := canonical(&s.closed); err != nil {
		return err
	}
	closes := false // a retired key pattern closed something
	for _, c := range m.closed {
		closes = closes || c.Kind() != Empty
	}
	if (s.ClosedLen() > 0) != closes {
		return fmt.Errorf("ClosedLen %d, model retired %v", s.ClosedLen(), m.closed)
	}
	for probe := 0; probe < 8; probe++ {
		width := 2
		if r.Intn(8) == 0 {
			width = 1 + 2*r.Intn(2)
		}
		attrs := make([]value.Value, width)
		for i := range attrs {
			attrs[i] = iv(int64(r.Intn(11)))
		}
		if got, want := pidOf(s.FirstMatch(attrs)), m.firstMatch(attrs); got != want {
			return fmt.Errorf("FirstMatch(%v) = %d, model %d", attrs, got, want)
		}
		if got := s.SetMatch(attrs); got != (m.firstMatch(attrs) != NoPID) {
			return fmt.Errorf("SetMatch(%v) = %v", attrs, got)
		}
		attr, v := r.Intn(3), iv(int64(r.Intn(11)))
		if got, want := pidOf(s.FirstMatchAttr(attr, v)), m.firstMatchAttr(attr, v); got != want {
			return fmt.Errorf("FirstMatchAttr(%d, %v) = %d, model %d", attr, v, got, want)
		}
	}
	return nil
}

func pidOf(e *Entry) PID {
	if e == nil {
		return NoPID
	}
	return e.PID
}
