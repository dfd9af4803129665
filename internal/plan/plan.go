// Package plan is the declarative layer over the mini engine: it lets a
// query be described as a named dataflow graph (sources, joins,
// relational operators, sinks) that is validated up front and then
// instantiated onto the live executor. It plays the role the Raindrop
// query plans play for the paper's PJoin (§4: "implemented ... as a
// query operator in the Raindrop XQuery subscription system"). Every
// node is one operator on its own goroutine, a join node one core.PJoin.
//
//	p := plan.New()
//	p.Source("open", gen.OpenSchema, openItems, false)
//	p.Source("bid", gen.BidSchema, bidItems, false)
//	p.PJoin("j", "open", "bid", plan.JoinOptions{PurgeThreshold: 1})
//	p.GroupBy("totals", "j", "item_id", "bid_increase", op.AggSum)
//	p.Sink("out", "totals")
//	results, err := p.Run(ctx)
//	rows := results["out"].Tuples()
package plan

import (
	"context"
	"fmt"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// JoinOptions configures a PJoin node.
type JoinOptions struct {
	// LeftAttr and RightAttr are the join attribute positions (default
	// 0, 0).
	LeftAttr, RightAttr int
	// PurgeThreshold is PJoin's purge threshold (default 1 = eager).
	PurgeThreshold int
	// PropagateCount enables push-mode propagation every N punctuations
	// (0 means the default, 1; a negative value disables push
	// propagation).
	PropagateCount int
	// MemoryBytes enables state relocation above this in-memory size.
	MemoryBytes int64
	// Window enables sliding-window semantics.
	Window stream.Time
	// Verify enables punctuation integrity checking.
	Verify bool
}

// joinConfig is the core configuration of a PJoin node named name over
// inputs in.
func joinConfig(name string, in []*stream.Schema, opts JoinOptions) core.Config {
	return core.Config{
		SchemaA: in[0], SchemaB: in[1],
		AttrA: opts.LeftAttr, AttrB: opts.RightAttr,
		OutName:            name,
		Window:             opts.Window,
		VerifyPunctuations: opts.Verify,
		Thresholds: core.Thresholds{
			Purge:          defaultInt(opts.PurgeThreshold, 1),
			PropagateCount: defaultInt(opts.PropagateCount, 1),
			MemoryBytes:    opts.MemoryBytes,
		},
	}
}

type node struct {
	name   string
	inputs []string
	// build constructs the operator bound to emit; inSchemas match
	// inputs. Run spawns it on the input edges. Nil for sources and sinks.
	build func(inSchemas []*stream.Schema, emit op.Emitter) (op.Operator, *stream.Schema, error)
	// source fields
	sourceItems []stream.Item
	sourceSch   *stream.Schema
	paced       bool
	isSink      bool
}

// Plan is a dataflow under construction. Methods record definition
// errors; Run reports the first one.
type Plan struct {
	nodes  []*node
	byName map[string]*node
	err    error
}

// New returns an empty plan.
func New() *Plan {
	return &Plan{byName: make(map[string]*node)}
}

func (p *Plan) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *Plan) add(n *node) {
	if p.err != nil {
		return
	}
	if n.name == "" {
		p.fail(fmt.Errorf("plan: empty node name"))
		return
	}
	if _, dup := p.byName[n.name]; dup {
		p.fail(fmt.Errorf("plan: duplicate node %q", n.name))
		return
	}
	for _, in := range n.inputs {
		ref, ok := p.byName[in]
		if !ok {
			p.fail(fmt.Errorf("plan: node %q references unknown input %q", n.name, in))
			return
		}
		if ref.isSink {
			p.fail(fmt.Errorf("plan: node %q reads from sink %q", n.name, in))
			return
		}
	}
	p.nodes = append(p.nodes, n)
	p.byName[n.name] = n
}

// Source adds a stream source feeding the given items (paced sources
// honour item timestamps in real time).
func (p *Plan) Source(name string, schema *stream.Schema, items []stream.Item, paced bool) {
	if schema == nil {
		p.fail(fmt.Errorf("plan: source %q: nil schema", name))
		return
	}
	p.add(&node{name: name, sourceItems: items, sourceSch: schema, paced: paced})
}

// PJoin adds a punctuation-exploiting join of left and right.
func (p *Plan) PJoin(name, left, right string, opts JoinOptions) {
	p.add(&node{
		name:   name,
		inputs: []string{left, right},
		build: func(in []*stream.Schema, emit op.Emitter) (op.Operator, *stream.Schema, error) {
			j, err := core.New(joinConfig(name, in, opts), emit)
			if err != nil {
				return nil, nil, err
			}
			return j, j.OutSchema(), nil
		},
	})
}

// GroupBy adds a grouped aggregate over the named attributes.
func (p *Plan) GroupBy(name, input, groupField, aggField string, agg op.AggKind) {
	p.add(&node{
		name:   name,
		inputs: []string{input},
		build: func(in []*stream.Schema, emit op.Emitter) (op.Operator, *stream.Schema, error) {
			g, err := in[0].IndexOf(groupField)
			if err != nil {
				return nil, nil, err
			}
			a := 0
			if agg != op.AggCount {
				if a, err = in[0].IndexOf(aggField); err != nil {
					return nil, nil, err
				}
			}
			gb, err := op.NewGroupBy(in[0], g, a, agg, emit)
			if err != nil {
				return nil, nil, err
			}
			return gb, gb.OutSchema(), nil
		},
	})
}

// Select adds a filter.
func (p *Plan) Select(name, input string, pred func(*stream.Tuple) bool) {
	p.add(&node{
		name:   name,
		inputs: []string{input},
		build: func(in []*stream.Schema, emit op.Emitter) (op.Operator, *stream.Schema, error) {
			s, err := op.NewSelect(in[0], pred, emit)
			if err != nil {
				return nil, nil, err
			}
			return s, s.OutSchema(), nil
		},
	})
}

// Project adds a projection keeping the named fields in order.
func (p *Plan) Project(name, input string, fields ...string) {
	p.add(&node{
		name:   name,
		inputs: []string{input},
		build: func(in []*stream.Schema, emit op.Emitter) (op.Operator, *stream.Schema, error) {
			keep := make([]int, 0, len(fields))
			for _, f := range fields {
				i, err := in[0].IndexOf(f)
				if err != nil {
					return nil, nil, err
				}
				keep = append(keep, i)
			}
			pr, err := op.NewProject(in[0], keep, emit)
			if err != nil {
				return nil, nil, err
			}
			return pr, pr.OutSchema(), nil
		},
	})
}

// KeyPunctuate adds a punctuation-deriving node for a unique-key field.
func (p *Plan) KeyPunctuate(name, input, keyField string) {
	p.add(&node{
		name:   name,
		inputs: []string{input},
		build: func(in []*stream.Schema, emit op.Emitter) (op.Operator, *stream.Schema, error) {
			k, err := in[0].IndexOf(keyField)
			if err != nil {
				return nil, nil, err
			}
			kp, err := op.NewKeyPunctuator(in[0], k, emit)
			if err != nil {
				return nil, nil, err
			}
			return kp, kp.OutSchema(), nil
		},
	})
}

// Sink marks a node's output for collection; Run returns its collector
// under the sink's name.
func (p *Plan) Sink(name, input string) {
	p.add(&node{name: name, inputs: []string{input}, isSink: true})
}

// Operators built during the last Run, by node name, for metric
// inspection after the run.
type RunResult struct {
	Sinks     map[string]*op.Collector
	Operators map[string]op.Operator
}

// Run validates, instantiates and executes the plan, blocking until the
// dataflow drains. Every non-sink node must be consumed by exactly the
// nodes that reference it (each output edge has one reader; fan-out
// would need an explicit split node and is rejected).
func (p *Plan) Run(ctx context.Context) (*RunResult, error) {
	if p.err != nil {
		return nil, p.err
	}
	if len(p.nodes) == 0 {
		return nil, fmt.Errorf("plan: empty plan")
	}
	// Each node's output may feed at most one consumer.
	readers := map[string]int{}
	for _, n := range p.nodes {
		for _, in := range n.inputs {
			readers[in]++
		}
	}
	for _, n := range p.nodes {
		if n.isSink {
			continue
		}
		switch readers[n.name] {
		case 0:
			return nil, fmt.Errorf("plan: node %q has no consumer (add a Sink)", n.name)
		case 1:
		default:
			return nil, fmt.Errorf("plan: node %q has %d consumers; fan-out is not supported", n.name, readers[n.name])
		}
	}

	pipe := exec.NewPipeline()
	edges := map[string]*exec.Edge{}
	schemas := map[string]*stream.Schema{}
	res := &RunResult{
		Sinks:     map[string]*op.Collector{},
		Operators: map[string]op.Operator{},
	}
	for _, n := range p.nodes {
		switch {
		case n.sourceSch != nil:
			e := pipe.Edge()
			pipe.SourceItems(e, n.sourceItems, n.paced)
			edges[n.name] = e
			schemas[n.name] = n.sourceSch
		case n.isSink:
			res.Sinks[n.name] = pipe.Sink(edges[n.inputs[0]])
		default:
			inSchemas := make([]*stream.Schema, len(n.inputs))
			inEdges := make([]*exec.Edge, len(n.inputs))
			for i, in := range n.inputs {
				inSchemas[i] = schemas[in]
				inEdges[i] = edges[in]
			}
			out := pipe.Edge()
			o, outSchema, err := n.build(inSchemas, out)
			if err != nil {
				return nil, fmt.Errorf("plan: node %q: %w", n.name, err)
			}
			if err := pipe.Spawn(o, inEdges...); err != nil {
				return nil, fmt.Errorf("plan: node %q: %w", n.name, err)
			}
			edges[n.name] = out
			schemas[n.name] = outSchema
			res.Operators[n.name] = o
		}
	}
	if err := pipe.Run(ctx); err != nil {
		return nil, err
	}
	return res, nil
}

func defaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0 // explicit negative disables
	}
	return v
}
