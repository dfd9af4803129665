//go:build pjoin_poison

package store

import (
	"math"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func init() {
	t := stream.Time(math.MinInt64 / 2)
	recycled = StoredTuple{T: &stream.Tuple{Values: make([]value.Value, 16), Ts: t}, ATS: t, DTS: t + 1}
}
