package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// sharedKVAB runs one full-scale KV A/B pair and shares it across the
// tests that need real tail violations: they only exist at default scale
// (the fixed 18MB serving heap needs the full churn to pressure the GC).
var sharedKVAB = sync.OnceValues(func() (*KVAB, error) {
	return RunKVAB(1, 1, 1, 3, 4, 0, nil, nil)
})

// TestRunKVAB: the serving half of the KV A/B at tiny scale — two runs
// merged per side, equal per-phase request counts, the text report. At
// this scale the GC never disrupts serving, so a micro SLO's violations
// are all service time and the attribution gate must reject the run.
func TestRunKVAB(t *testing.T) {
	ab, err := RunKVAB(2, 0.01, 1, 3, 4, 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Base.Config != 3 || ab.Test.Config != 4 {
		t.Fatalf("configs = %d/%d, want 3/4", ab.Base.Config, ab.Test.Config)
	}
	// Two runs merged: each side's total is the sum of both runs' served
	// counts, and both sides must agree.
	var baseN, testN uint64
	for i := range ab.Base.Report.Phases {
		baseN += ab.Base.Report.Phases[i].Dist.Count
		testN += ab.Test.Report.Phases[i].Dist.Count
	}
	if baseN == 0 || baseN != testN {
		t.Fatalf("request totals base %d, test %d", baseN, testN)
	}
	for _, side := range []*KVSide{&ab.Base, &ab.Test} {
		if err := side.Report.Validate(); err != nil {
			t.Fatalf("cfg %d serving report invalid: %v", side.Config, err)
		}
	}
	if err := ab.Validate(); err == nil || !strings.Contains(err.Error(), "attributed only") {
		t.Fatalf("Validate = %v, want the attribution gate to reject service-time violations", err)
	}

	var text bytes.Buffer
	ab.WriteText(&text)
	for _, want := range []string{
		"KV serving A/B", "SLO curve, steady phase", "SLO curve, burst phase",
		"SLO curve, shifted phase", "tail headline", "hit rate",
		"tail attribution, SLO 500 cycles", "p99 violations by cause:", "slowest exemplars",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestKVJSONRoundTrip pins the artifact shape: the JSON the CI job
// uploads must decode back into a KVAB with the distributions, SLO
// ladders and tail attribution intact, and the same validation verdict.
func TestKVJSONRoundTrip(t *testing.T) {
	ab, err := RunKVAB(1, 0.01, 1, 3, 4, 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, ab); err != nil {
		t.Fatal(err)
	}
	var rt KVAB
	if err := json.Unmarshal(buf.Bytes(), &rt); err != nil {
		t.Fatalf("decode artifact: %v", err)
	}
	if a, b := ab.Validate(), rt.Validate(); (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
		t.Fatalf("validation verdict changed in round trip: %v vs %v", a, b)
	}
	if rt.Base.Knobs != ab.Base.Knobs || rt.Test.Knobs != ab.Test.Knobs {
		t.Fatal("knob strings lost in round trip")
	}
	if rt.SLOThresholdCycles != 500 || rt.Base.Tail.Violations != ab.Base.Tail.Violations ||
		rt.Test.Tail.Requests != ab.Test.Tail.Requests {
		t.Fatal("tail attribution lost in round trip")
	}
	for i := range ab.Base.Report.Phases {
		a, b := ab.Base.Report.Phases[i], rt.Base.Report.Phases[i]
		if a.Dist != b.Dist {
			t.Fatalf("phase %q dist changed in round trip: %+v vs %+v", a.Phase, a.Dist, b.Dist)
		}
		if len(a.SLO) != len(b.SLO) {
			t.Fatalf("phase %q SLO ladder length changed", a.Phase)
		}
		for j := range a.SLO {
			if a.SLO[j] != b.SLO[j] {
				t.Fatalf("phase %q SLO point %d changed", a.Phase, j)
			}
		}
	}
}

// TestKVABValidateRejectsCorruption: every gate of the KV validator —
// serving and tail alike — must reject a full-scale result corrupted to
// violate it.
func TestKVABValidateRejectsCorruption(t *testing.T) {
	ab, err := sharedKVAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*KVAB)) *KVAB {
		c := *ab
		c.Base.Report.Phases = append(c.Base.Report.Phases[:0:0], ab.Base.Report.Phases...)
		c.Test.Report.Phases = append(c.Test.Report.Phases[:0:0], ab.Test.Report.Phases...)
		f(&c)
		return &c
	}
	cases := []struct {
		name string
		ab   *KVAB
	}{
		// Both sides serve the same open-loop schedule, so diverging
		// per-phase counts can only be a harness bug.
		{"phase counts differ", mutate(func(c *KVAB) { c.Test.Report.Phases[1].Dist.Count++ })},
		{"attributor missed requests", mutate(func(c *KVAB) { c.Base.Tail.Requests-- })},
		{"attribution below 90%", mutate(func(c *KVAB) { c.Test.Tail.AttributedFraction = 0.89 })},
		{"no violations", mutate(func(c *KVAB) { c.Base.Tail.Violations, c.Test.Tail.Violations = 0, 0 })},
	}
	for _, tc := range cases {
		if tc.ab.Validate() == nil {
			t.Errorf("gate accepted corrupted result: %s", tc.name)
		}
	}
	if err := ab.Validate(); err != nil {
		t.Fatalf("corruption cases mutated the shared result: %v", err)
	}
}
