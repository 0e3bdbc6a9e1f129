package lockorder_test

import (
	"testing"

	"hcsgc/internal/analysis/lintkit"
	"hcsgc/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	// Loading xk pulls in lk; RunFixture covers the per-package findings
	// (lk's inversions, ranks, safepoint holds) and the module pass
	// (xk's cross-package edge into lk).
	lintkit.RunFixture(t, "testdata", "xk", lockorder.Analyzer)
}
