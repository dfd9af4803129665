package op

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/slab"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// AggKind selects a group-by aggregate.
type AggKind uint8

// The supported aggregates. Sum and Avg require a numeric aggregate
// attribute; Count ignores it.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// String returns the aggregate's SQL-ish name.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// GroupBy is a blocking group-by-and-aggregate operator that exploits
// punctuations for early output (the paper's Fig. 1 query plan: group-by
// over the join's output, producing the bid sum per item as soon as the
// join propagates the item's punctuation). Without punctuations it emits
// everything at end-of-stream. Its state is the open groups plus the
// closed keys, kept as intervals (punct.Closed) to reject a late tuple.
//
// It allocates nothing per group once warm: a closed group's aggregate
// goes on a free list the next group takes from, and its row is lent
// (op.Operator rule 7) from a slab rewound when the Process or Finish call
// that built it returns — the items are Borrowed, and a consumer that
// keeps one goes through stream.ResultSlab.Keep.
type GroupBy struct {
	name      string
	in        *stream.Schema
	out       *stream.Schema
	groupAttr int
	aggAttr   int
	agg       AggKind
	emit      Emitter

	groups map[value.Key]*aggState
	states slab.Slab[aggState] // NewOnce: a chunk lives while one of its states is open or free
	free   []*aggState         // zeroed states of closed groups, taken before the slab
	order  []value.Value       // group creation order, for deterministic flush; may hold closed keys
	closed punct.Closed        // keys punctuations closed (integrity check)
	rows   stream.ResultSlab   // the rows of one Process or Finish call, rewound when it returns

	eos      bool
	finished bool
	now      stream.Time
	early    int64 // groups emitted before EOS thanks to punctuations

	pullAt int    // open-group threshold that triggers pull requests
	pull   func() // upstream propagation request (§3.5 pull mode)
}

// aggChunk is how many groups' aggregates one allocation holds.
const aggChunk = 64

type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	minV  value.Value
	maxV  value.Value
}

var _ Operator = (*GroupBy)(nil)

// NewGroupBy builds a group-by over in, grouping on attribute groupAttr
// and aggregating agg over attribute aggAttr. The output schema is
// (group, <agg name>).
func NewGroupBy(in *stream.Schema, groupAttr, aggAttr int, agg AggKind, emit Emitter) (*GroupBy, error) {
	if in == nil {
		return nil, fmt.Errorf("op: group-by: nil input schema")
	}
	if emit == nil {
		return nil, fmt.Errorf("op: group-by: nil emitter")
	}
	if groupAttr < 0 || groupAttr >= in.Width() {
		return nil, fmt.Errorf("op: group-by: group attribute %d out of range", groupAttr)
	}
	if agg != AggCount {
		if aggAttr < 0 || aggAttr >= in.Width() {
			return nil, fmt.Errorf("op: group-by: aggregate attribute %d out of range", aggAttr)
		}
	}
	aggKind := value.KindInt
	switch agg {
	case AggSum, AggMin, AggMax:
		aggKind = in.FieldAt(aggAttr).Kind
		if agg == AggSum && aggKind != value.KindInt && aggKind != value.KindFloat {
			return nil, fmt.Errorf("op: group-by: sum needs numeric attribute, got %s", aggKind)
		}
	case AggAvg:
		k := in.FieldAt(aggAttr).Kind
		if k != value.KindInt && k != value.KindFloat {
			return nil, fmt.Errorf("op: group-by: avg needs numeric attribute, got %s", k)
		}
		aggKind = value.KindFloat
	}
	out, err := stream.NewSchema("groupby",
		stream.Field{Name: in.FieldAt(groupAttr).Name, Kind: in.FieldAt(groupAttr).Kind},
		stream.Field{Name: agg.String(), Kind: aggKind},
	)
	if err != nil {
		return nil, err
	}
	g := &GroupBy{
		name:      fmt.Sprintf("groupby(%s,%s)", in.FieldAt(groupAttr).Name, agg),
		in:        in,
		out:       out,
		groupAttr: groupAttr,
		aggAttr:   aggAttr,
		agg:       agg,
		emit:      emit,
		groups:    make(map[value.Key]*aggState),
		states:    slab.NewOnce[aggState](aggChunk),
		closed:    punct.NewClosed(groupAttr),
	}
	g.rows.Rewind()
	return g, nil
}

// Name implements Operator.
func (g *GroupBy) Name() string { return g.name }

// NumPorts implements Operator.
func (g *GroupBy) NumPorts() int { return 1 }

// OutSchema implements Operator.
func (g *GroupBy) OutSchema() *stream.Schema { return g.out }

// Groups returns the number of open (unemitted) groups — the operator's
// state size.
func (g *GroupBy) Groups() int { return len(g.groups) }

// EarlyEmitted returns how many groups punctuations allowed out before
// end-of-stream.
func (g *GroupBy) EarlyEmitted() int64 { return g.early }

// ClosedIntervals returns how many intervals the closed keys make.
func (g *GroupBy) ClosedIntervals() int { return g.closed.Len() }

// RequestPunctuations registers the paper's pull propagation mode
// (§3.5): whenever the number of open groups reaches threshold, f is
// invoked to ask the upstream operator for propagable punctuations
// (typically an exec.PullHandle.Request). f must be safe to call from
// the goroutine driving this operator.
func (g *GroupBy) RequestPunctuations(threshold int, f func()) {
	g.pullAt = threshold
	g.pull = f
}

// Process implements Operator.
func (g *GroupBy) Process(port int, it stream.Item, now stream.Time) error {
	if err := ValidatePort(g.name, port, 1); err != nil {
		return err
	}
	if g.finished {
		return fmt.Errorf("op: %s: Process after Finish", g.name)
	}
	if now > g.now {
		g.now = now
	}
	switch it.Kind {
	case stream.KindTuple:
		return g.processTuple(it.Tuple)
	case stream.KindPunct:
		defer g.rows.Rewind() // the rows are borrowed: they die with the call
		return g.processPunct(it.Punct, it.Ts)
	case stream.KindEOS:
		if g.eos {
			return fmt.Errorf("op: %s: duplicate EOS", g.name)
		}
		g.eos = true
		return nil
	default:
		return fmt.Errorf("op: %s: unknown item kind %v", g.name, it.Kind)
	}
}

func (g *GroupBy) processTuple(t *stream.Tuple) error {
	if len(t.Values) != g.in.Width() {
		return fmt.Errorf("op: %s: tuple width %d, schema width %d", g.name, len(t.Values), g.in.Width())
	}
	key := t.Values[g.groupAttr]
	if g.closed.Has(key) {
		return fmt.Errorf("op: %s: tuple for group %s arrived after its punctuation", g.name, key)
	}
	k := key.Key()
	st, ok := g.groups[k]
	if !ok {
		if n := len(g.free); n > 0 {
			st, g.free = g.free[n-1], g.free[:n-1]
		} else {
			st = &g.states.Take(1)[0]
		}
		g.groups[k] = st
		g.order = append(g.order, key)
		if g.pull != nil && g.pullAt > 0 && len(g.groups) >= g.pullAt {
			g.pull()
		}
	}
	st.count++
	if g.agg == AggCount {
		return nil
	}
	v := t.Values[g.aggAttr]
	switch g.agg {
	case AggSum, AggAvg:
		if v.Kind() == value.KindInt {
			st.sumI += v.IntVal()
			st.sumF += float64(v.IntVal())
		} else {
			st.sumF += v.FloatVal()
		}
	case AggMin:
		if !st.minV.IsValid() || v.Less(st.minV) {
			st.minV = v
		}
	case AggMax:
		if !st.maxV.IsValid() || st.maxV.Less(v) {
			st.maxV = v
		}
	}
	return nil
}

// processPunct emits every group the punctuation closes, releases a
// matching punctuation downstream, and remembers the keys it closed so
// late tuples are detected. Only the group attribute's pattern matters; the
// other patterns must be wildcard for the punctuation to close whole
// groups (otherwise it only rules out part of a group and is dropped).
func (g *GroupBy) processPunct(p punct.Punctuation, ts stream.Time) error {
	if p.Width() != g.in.Width() {
		return fmt.Errorf("op: %s: punctuation width %d, schema width %d", g.name, p.Width(), g.in.Width())
	}
	for i := 0; i < p.Width(); i++ {
		if i != g.groupAttr && p.PatternAt(i).Kind() != punct.Wildcard {
			return nil // partial information: cannot close any group
		}
	}
	pat := p.PatternAt(g.groupAttr)
	switch pat.Kind() {
	case punct.Wildcard:
		// The whole stream is closed; equivalent to EOS for grouping.
		if err := g.flushAll(ts, true); err != nil {
			return err
		}
	case punct.Constant:
		// A constant matches by Value.Equal, which is map-key equality
		// on Key: the one group it closes is found without a scan.
		if key := pat.ConstVal(); g.groups[key.Key()] != nil {
			if err := g.emitGroup(key, ts); err != nil {
				return err
			}
			g.early++
		}
	default:
		for _, key := range g.order {
			if g.groups[key.Key()] == nil || !pat.Matches(key) {
				continue
			}
			if err := g.emitGroup(key, ts); err != nil {
				return err
			}
			g.early++
		}
	}
	// Closed keys leave order once they outnumber the open ones.
	if len(g.order) > 2*len(g.groups) {
		g.compact()
	}
	g.closed.Add(p)
	// Propagate: the group's result row is final, so the same pattern
	// holds over the output schema (group attribute, wildcard aggregate).
	outP, err := p.Place(g.groupAttr, 2, 0)
	if err != nil {
		return err
	}
	return g.emit.Emit(stream.PunctItem(outP, ts))
}

func (g *GroupBy) emitGroup(key value.Value, ts stream.Time) error {
	k := key.Key()
	st := g.groups[k]
	delete(g.groups, k)
	var res value.Value
	switch g.agg {
	case AggCount:
		res = value.Int(st.count)
	case AggSum:
		if g.out.FieldAt(1).Kind == value.KindInt {
			res = value.Int(st.sumI)
		} else {
			res = value.Float(st.sumF)
		}
	case AggMin:
		res = st.minV
	case AggMax:
		res = st.maxV
	case AggAvg:
		res = value.Float(st.sumF / float64(st.count))
	}
	*st = aggState{} // the free list must not pin the group's min and max
	g.free = append(g.free, st)
	t, err := g.rows.NewTuple(g.out, ts, key, res)
	if err != nil {
		return err
	}
	return g.emit.Emit(stream.Item{Kind: stream.KindTuple, Borrowed: true, Tuple: t, Ts: ts})
}

// compact drops the keys of closed groups from order, keeping the
// creation order of the open ones; the spare capacity is cleared so it
// pins no key's string.
func (g *GroupBy) compact() {
	kept := g.order[:0]
	for _, key := range g.order {
		if g.groups[key.Key()] != nil {
			kept = append(kept, key)
		}
	}
	clear(g.order[len(kept):])
	g.order = kept
}

func (g *GroupBy) flushAll(ts stream.Time, early bool) error {
	for _, key := range g.order {
		if _, ok := g.groups[key.Key()]; !ok {
			continue
		}
		if err := g.emitGroup(key, ts); err != nil {
			return err
		}
		if early {
			g.early++
		}
	}
	g.order = nil
	return nil
}

// OnIdle implements Operator; group-by has no background work.
func (g *GroupBy) OnIdle(stream.Time) (bool, error) { return false, nil }

// Finish implements Operator: flush all remaining groups and forward EOS.
func (g *GroupBy) Finish(now stream.Time) error {
	if g.finished {
		return fmt.Errorf("op: %s: double Finish", g.name)
	}
	if !g.eos {
		return fmt.Errorf("op: %s: Finish before EOS", g.name)
	}
	if now > g.now {
		g.now = now
	}
	defer g.rows.Rewind()
	if err := g.flushAll(g.now, false); err != nil {
		return err
	}
	g.finished = true
	return g.emit.Emit(stream.EOSItem(g.now))
}
