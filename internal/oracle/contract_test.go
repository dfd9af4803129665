package oracle

import (
	"strings"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// TestOperatorLifecycleContract pins the driver contract documented on
// op.Operator: every join the oracle drives — the shj result oracle,
// single-instance PJoin, XJoin, and the sharded wrapper — must reject
// the same lifecycle violations with errors instead of corrupting
// state. One differential driver (drive) is only sound if every
// operator means the same thing by Process/EOS/Finish.
func TestOperatorLifecycleContract(t *testing.T) {
	sc := FromSeed(1)
	builders := map[string]func(out op.Emitter) (op.Operator, error){
		"shj": func(out op.Emitter) (op.Operator, error) { return buildOracle(sc, 0, out) },
		"pjoin": func(out op.Emitter) (op.Operator, error) {
			return build(sc, Variant{Op: "pjoin", Shards: 1}, out, false, nil)
		},
		"xjoin": func(out op.Emitter) (op.Operator, error) {
			return build(sc, Variant{Op: "xjoin", Shards: 1}, out, false, nil)
		},
		"sharded": func(out op.Emitter) (op.Operator, error) {
			return build(sc, Variant{Op: "pjoin", Shards: 2}, out, false, nil)
		},
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			fresh := func() op.Operator {
				j, err := mk(&op.Collector{})
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			mustErr := func(what string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s: accepted, want error", what)
				}
			}
			// Finish before EOS on both ports.
			mustErr("Finish before EOS", fresh().Finish(1))
			// Duplicate EOS on a port.
			j := fresh()
			if err := j.Process(0, stream.EOSItem(1), 1); err != nil {
				t.Fatal(err)
			}
			mustErr("duplicate EOS", j.Process(0, stream.EOSItem(2), 2))
			// Finish still premature with only one port ended.
			mustErr("Finish with one EOS", j.Finish(3))
			// Clean completion, then double Finish and Process after Finish.
			sink := &op.Collector{}
			j2, err := mk(sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.Process(0, stream.EOSItem(1), 1); err != nil {
				t.Fatal(err)
			}
			if err := j2.Process(1, stream.EOSItem(2), 2); err != nil {
				t.Fatal(err)
			}
			if err := j2.Finish(3); err != nil {
				t.Fatal(err)
			}
			var eos int
			for _, it := range sink.Items {
				if it.Kind == stream.KindEOS {
					eos++
				}
			}
			if eos != 1 {
				t.Errorf("emitted %d downstream EOS, want exactly 1", eos)
			}
			mustErr("double Finish", j2.Finish(4))
			err = j2.Process(0, stream.EOSItem(5), 5)
			mustErr("Process after Finish", err)
			if err != nil && !strings.Contains(err.Error(), "Finish") {
				t.Errorf("Process-after-Finish error does not name Finish: %v", err)
			}
		})
	}
}
