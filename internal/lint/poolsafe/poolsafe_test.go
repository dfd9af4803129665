package poolsafe

import (
	"testing"

	"pjoin/internal/lint/linttest"
)

func TestPoolsafe(t *testing.T) {
	linttest.Run(t, "testdata", Analyzer, "pool", "sharedpool")
}
