package bench

import (
	"testing"
)

// TestRunTailABTiny: the KV A/B's tail half at tiny scale — checksum
// cross-check and request accounting. At this scale the GC never disrupts
// serving, so a micro SLO yields service-caused violations; the 90%
// attribution gate is TestTailABFullAttribution's job at real scale.
func TestRunTailABTiny(t *testing.T) {
	ab, err := RunKVAB(2, 0.01, 1, 3, 4, 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Runs != 2 || ab.SLOThresholdCycles != 500 {
		t.Fatalf("runs=%d slo=%d, want 2/500", ab.Runs, ab.SLOThresholdCycles)
	}
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if err := s.side.Tail.Validate(); err != nil {
			t.Fatalf("%s tail report invalid: %v", s.name, err)
		}
		var served uint64
		for _, p := range s.side.Report.Phases {
			served += p.Dist.Count
		}
		if s.side.Tail.Requests != served || served == 0 {
			t.Fatalf("%s attributor observed %d requests, serving report counted %d",
				s.name, s.side.Tail.Requests, served)
		}
		if s.side.Tail.Violations == 0 {
			t.Fatalf("%s side saw no violations against a 500-cycle SLO", s.name)
		}
	}
}

// TestTailABFullAttribution holds one full-scale KV A/B pair to the
// acceptance gate: at least 90% of SLO-violating requests on each side
// carry a concrete cause and responsible cycle id.
func TestTailABFullAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale KV run in -short mode")
	}
	ab, err := sharedKVAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	if ab.SLOThresholdCycles != 1_000_000 {
		t.Fatalf("default SLO = %d, want 1000000", ab.SLOThresholdCycles)
	}
	// The serving finding must survive attribution: stall-driven causes
	// (alloc-stall + queued-behind-stall), not STW pauses, dominate the
	// violation population on both sides.
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		counts := map[string]uint64{}
		for _, c := range s.side.Tail.ByCause {
			counts[c.Cause] = c.Count
		}
		stallDriven := counts["alloc-stall"] + counts["queued-behind-stall"]
		if stallDriven <= counts["stw-pause"] {
			t.Errorf("%s side: stall-driven causes %d not dominant over stw-pause %d",
				s.name, stallDriven, counts["stw-pause"])
		}
	}
}
