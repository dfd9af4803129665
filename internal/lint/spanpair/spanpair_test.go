package spanpair

import (
	"testing"

	"pjoin/internal/lint/linttest"
)

func TestSpanpair(t *testing.T) {
	linttest.Run(t, "testdata", Analyzer, "spans", "nopair", "arrive", "point")
}
