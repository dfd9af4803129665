package core

import (
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// The lazy-purge, lazy-index, push-propagation configuration has the
// paper's Table 1 rows; the others show which rows Config removes.
const (
	table1Lazy = `StreamEmptyEvent [both inputs ended] -> disk-join
StreamEmptyEvent [both inputs ended] -> index-build, punctuation-propagation
PurgeThresholdReachEvent [purge threshold reached] -> state-purge
StateFullEvent [memory threshold reached] -> state-relocation
DiskJoinActivateEvent [inputs stalled] -> disk-join
PropagateRequestEvent -> index-build, punctuation-propagation
PropagateTimeExpireEvent -> index-build, punctuation-propagation
PropagateCountReachEvent -> index-build, punctuation-propagation
`
	table1Eager = `StreamEmptyEvent [both inputs ended] -> disk-join
StreamEmptyEvent [both inputs ended] -> punctuation-propagation
PurgeThresholdReachEvent [purge threshold reached] -> state-purge
StateFullEvent [memory threshold reached] -> state-relocation
DiskJoinActivateEvent [inputs stalled] -> disk-join
PropagateRequestEvent -> punctuation-propagation
PropagateTimeExpireEvent -> punctuation-propagation
PropagateCountReachEvent -> punctuation-propagation
`
	table1NoProp = `StreamEmptyEvent [both inputs ended] -> disk-join
PurgeThresholdReachEvent [purge threshold reached] -> state-purge
StateFullEvent [memory threshold reached] -> state-relocation
DiskJoinActivateEvent [inputs stalled] -> disk-join
`
	table1XJoin = `StreamEmptyEvent [both inputs ended] -> disk-join
StateFullEvent [memory threshold reached] -> state-relocation
DiskJoinActivateEvent [inputs stalled] -> disk-join
`
)

// TestTable1Golden pins the Table 1 printout byte for byte for the
// configurations that shape it. The printout is rendered from the table
// the join dispatches through, so this also pins which components each
// event runs, and in what order.
func TestTable1Golden(t *testing.T) {
	// pjoinbench's table1 experiment.
	bench := defaultConfig()
	bench.Thresholds.Purge = 10
	bench.Thresholds.MemoryBytes = 64 << 20
	bench.Thresholds.DiskJoinIdle = 50 * stream.Millisecond
	bench.Thresholds.PropagateCount = 100
	eager := defaultConfig()
	eager.EagerIndex = true
	noProp := defaultConfig()
	noProp.DisablePropagation = true

	for _, tc := range []struct {
		name  string
		build func(Config, op.Emitter) (*PJoin, error)
		cfg   Config
		want  string
	}{
		{"default", New, defaultConfig(), table1Lazy},
		{"bench-table1", New, bench, table1Lazy},
		{"eager-index", New, eager, table1Eager},
		{"no-propagation", New, noProp, table1NoProp},
		{"xjoin", NewXJoin, defaultConfig(), table1XJoin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := tc.build(tc.cfg, &op.Collector{})
			if err != nil {
				t.Fatal(err)
			}
			if got := j.Table1(); got != tc.want {
				t.Errorf("Table 1 printout:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
