// Package pjoin is a Go reproduction of "Joining Punctuated Streams"
// (Ding, Mehta, Rundensteiner, Heineman; EDBT 2004): the PJoin operator
// — a punctuation-exploiting stream equi-join — together with every
// substrate the paper builds on and the full experimental harness that
// regenerates its tables and figures.
//
// The implementation lives under internal/:
//
//   - internal/core — PJoin itself, with the §3.6 event table and
//     monitor that run its components (plus the §6 sliding-window
//     extension; the §6 n-way join is a plan of binary PJoins), and the
//     XJoin baseline, the same operator without punctuation components
//     (core.NewXJoin)
//   - internal/shj — the naive symmetric hash join (correctness oracle)
//   - internal/punct — punctuation patterns, sets and algebra
//   - internal/stream, internal/value — the data model
//   - internal/store — the hash-partitioned join state with spill-to-disk
//   - internal/op, internal/exec — downstream operators and the live
//     channel executor
//   - internal/gen, internal/sim, internal/metrics, internal/bench — the
//     benchmark system, cost-model simulator and per-figure experiments
//
// The runnable entry points are cmd/pjoinbench (regenerate any figure),
// cmd/auctiond (the paper's Fig. 1 plan, live), and the programs under
// examples/. This root package holds only documentation and the
// repository-level benchmarks in bench_test.go.
package pjoin
