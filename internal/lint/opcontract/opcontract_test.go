package opcontract

import (
	"testing"

	"pjoin/internal/lint/linttest"
)

func TestOpcontract(t *testing.T) {
	linttest.Run(t, "testdata", Analyzer, "ops", "stamps", "keeps")
}
