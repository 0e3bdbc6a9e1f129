package allocfree_test

import (
	"testing"

	"hcsgc/internal/analysis/allocfree"
	"hcsgc/internal/analysis/lintkit"
)

func TestAllocFree(t *testing.T) {
	// Loading af pulls in dep (the cross-package boundary) and the
	// sync/atomic stub; RunFixture covers both the per-package proofs
	// and the module-pass boundary findings.
	lintkit.RunFixture(t, "testdata", "af", allocfree.Analyzer)
}
