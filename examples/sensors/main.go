// Sensors: joining two sensor-network streams (the paper's §1
// motivation) with BOTH a sliding window and punctuations — the §6
// extension. Readings and zone alerts are joined on the observation
// epoch; a 50ms window bounds how stale a pair may be, while per-epoch
// punctuations purge exactly and propagate downstream.
//
// Run with: go run ./examples/sensors
package main

import (
	"fmt"
	"log"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

func main() {
	// 20 epochs of 10ms each: sensors report a few readings per epoch,
	// about every other epoch a zone alert fires, and when an epoch ends
	// both streams punctuate it — the base station knows no more data for
	// that epoch will arrive (gen.Sensors).
	arrs, err := gen.Sensors(gen.SensorConfig{Seed: 7, Epochs: 20, EpochLength: 10 * stream.Millisecond})
	if err != nil {
		log.Fatal(err)
	}

	sink := &op.Collector{}
	cfg := core.Config{
		SchemaA: gen.ReadingsSchema, SchemaB: gen.AlertsSchema,
		AttrA: 0, AttrB: 0,
		Window:             50 * stream.Millisecond,
		VerifyPunctuations: true,
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 2
	join, err := core.New(cfg, sink)
	if err != nil {
		log.Fatal(err)
	}

	feed := func(port int, it stream.Item) {
		if err := join.Process(port, it, it.Ts); err != nil {
			log.Fatal(err)
		}
	}
	var ts stream.Time
	maxState := 0
	for _, a := range arrs {
		feed(a.Port, a.Item)
		ts = a.Item.Ts
		maxState = max(maxState, join.StateTuples())
	}
	feed(gen.SensorPortReadings, stream.EOSItem(ts+1))
	feed(gen.SensorPortAlerts, stream.EOSItem(ts+1))
	if err := join.Finish(ts + 1); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("alerts matched with readings: %d results\n", len(sink.Tuples()))
	for _, t := range sink.Tuples()[:min(5, len(sink.Tuples()))] {
		fmt.Printf("  epoch %2d sensor %s temp %.1f zone %s\n",
			t.Values[0].IntVal(), t.Values[1].StrVal(), t.Values[2].FloatVal(), t.Values[4].StrVal())
	}
	fmt.Printf("punctuations propagated downstream: %d\n", len(sink.Puncts()))
	fmt.Printf("max state during run: %d tuples; final state: %d\n", maxState, join.StateTuples())
	m := join.Metrics()
	fmt.Printf("purged=%d dropped-on-fly=%d\n", m.Purged, m.DroppedOnFly)
	if got := len(sink.Tuples()); got != 37 || join.StateTuples() != 0 {
		log.Fatalf("want 37 results and final state 0; got %d and %d", got, join.StateTuples())
	}
}
