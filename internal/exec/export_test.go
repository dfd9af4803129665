package exec

// Hooks for the tests in package exec_test. Those tests build sharded
// joins, and parallel imports exec (parallel.Spawn wires a sharded join
// onto a Pipeline), so they cannot live in package exec.

var (
	SplitSynthetic = splitSynthetic
	ValuesKey      = valuesKey
	ShjMultiset    = shjMultiset
	DiffMultisets  = diffMultisets
)

// PoolStats is the pipeline's batch balance (stream.BatchPool.Stats).
func PoolStats(p *Pipeline) (gets, puts int64) { return p.pool.Stats() }
