// Nary: the paper's §6 n-way extension, a three-way punctuated join run
// as a pipeline of two binary PJoins. Orders, Payments and Shipments are
// joined on order_id: `paid` = Orders ⋈ Payments, `fulfilled` = paid ⋈
// Shipments. Each stream punctuates an order id once its stage is done;
// that purges both joins' state, and the punctuations `paid` propagates
// purge `fulfilled`'s too. It exits non-zero unless every order comes
// out, both joins end empty and every punctuation is propagated.
//
// Run with: go run ./examples/nary
package main

import (
	"context"
	"fmt"
	"log"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

func main() {
	field := func(name string, kind value.Kind) stream.Field { return stream.Field{Name: name, Kind: kind} }
	id := field("order_id", value.KindInt)
	schemas := []*stream.Schema{
		stream.MustSchema("Orders", id, field("customer", value.KindString)),
		stream.MustSchema("Payments", id, field("amount", value.KindFloat)),
		stream.MustSchema("Shipments", id, field("carrier", value.KindString)),
	}

	// Each order flows through the three stages in turn.
	const nOrders = 8
	rng := vtime.NewRNG(11)
	var ts stream.Time
	next := func() stream.Time { ts++; return ts }
	in := make([][]stream.Item, len(schemas))
	for id := int64(0); id < nOrders; id++ {
		payloads := []value.Value{
			value.Str([]string{"ada", "bob", "cho"}[rng.Intn(3)]),
			value.Float(float64(10 + rng.Intn(90))),
			value.Str([]string{"ups", "dhl"}[rng.Intn(2)]),
		}
		for s, v := range payloads {
			in[s] = append(in[s], stream.TupleItem(stream.MustTuple(schemas[s], next(), value.Int(id), v)))
			in[s] = append(in[s], stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(id))), next()))
		}
	}

	// paid propagates a punctuation as soon as no stored tuple matches it;
	// the punctuation stays in force there, purging and dropping, until
	// it owes nothing.
	p := exec.NewPipeline()
	src := []*exec.Edge{p.Edge(), p.Edge(), p.Edge()}
	for s, items := range in {
		p.SourceItems(src[s], items, false)
	}
	// join spawns a PJoin named name on inputs a and b and returns it with
	// its output edge.
	join := func(name string, a, b *exec.Edge, sa, sb *stream.Schema) (*core.PJoin, *exec.Edge) {
		out := p.Edge()
		j, err := core.New(core.Config{SchemaA: sa, SchemaB: sb, OutName: name, VerifyPunctuations: true, Thresholds: core.Thresholds{PropagateCount: 1}}, out)
		if err == nil {
			err = p.Spawn(j, a, b)
		}
		if err != nil {
			log.Fatal(err)
		}
		return j, out
	}
	paid, paidOut := join("paid", src[0], src[1], schemas[0], schemas[1])
	fulfilled, fulfilledOut := join("fulfilled", paidOut, src[2], paid.OutSchema(), schemas[2])
	out := p.Sink(fulfilledOut)
	if err := p.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("fulfilled orders (order x payment x shipment):")
	for _, t := range out.Tuples() {
		fmt.Printf("  #%d %-3s paid %5.1f shipped via %s\n",
			t.Values[0].IntVal(), t.Values[1].StrVal(), t.Values[3].FloatVal(), t.Values[5].StrVal())
	}
	state := 0
	for _, j := range []*core.PJoin{paid, fulfilled} {
		m := j.Metrics()
		fmt.Printf("%-9s results=%d purged=%d dropped-on-fly=%d state=%d\n",
			j.OutSchema().Name(), m.TuplesOut, m.Purged, m.DroppedOnFly, j.StateTuples())
		state += j.StateTuples()
	}
	puncts := len(out.Puncts())
	fmt.Println("punctuations propagated:", puncts)
	if got := len(out.Tuples()); got != nOrders || state != 0 || puncts != 3*nOrders {
		log.Fatalf("want %d results, state 0 and %d punctuations; got %d, %d and %d",
			nOrders, 3*nOrders, got, state, puncts)
	}
}
