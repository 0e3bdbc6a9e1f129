package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// sharedAB runs the calibrated A/B once and shares the result across the
// overload tests: the run is the expensive part, and every test here wants
// the same comparison point (full scale, 2x the sustainable load).
var sharedAB = sync.OnceValues(func() (*OverloadAB, error) {
	return RunOverloadAB(1, 1, 1, 3, nil, nil)
})

// TestRunOverloadAB is the acceptance gate for the overload-protection
// plane, run at the calibrated comparison point (full scale, 2x the
// sustainable load): OverloadAB.Validate enforces that the unprotected side
// melted, the protected side shed AND fast-failed with >= 99% of its
// violations attributed, and that protection bought a lower successful
// p999 at no goodput cost.
func TestRunOverloadAB(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	if ab.LoadFactor != 2 || ab.Config != 3 {
		t.Fatalf("comparison point drifted: factor %g cfg %d", ab.LoadFactor, ab.Config)
	}
	// Both arms of the client policy must have been exercised, not just
	// configured: retries happen (shed requests resubmit) and give up at
	// the deadline gate (failures exist).
	if p := ab.Protected.Overload; p.Retries == 0 || p.Failures == 0 {
		t.Fatalf("client retry policy not exercised: %d retries, %d failures", p.Retries, p.Failures)
	}

	var text bytes.Buffer
	ab.WriteText(&text)
	for _, want := range []string{
		"KV overload A/B", "goodput (within-SLO ok)", "shed (point / bulk)",
		"deadline expiries", "success p999", "violation causes (protected side)",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestOverloadJSONRoundTrip pins the artifact shape: the JSON the CI job
// uploads must decode back into an OverloadAB that still passes the
// acceptance gate, and the normalized baseline artifact must carry both
// sides' metrics.
func TestOverloadJSONRoundTrip(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, ab); err != nil {
		t.Fatal(err)
	}
	var rt OverloadAB
	if err := json.Unmarshal(buf.Bytes(), &rt); err != nil {
		t.Fatalf("decode artifact: %v", err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if rt.Protected.Overload.Success != ab.Protected.Overload.Success {
		t.Fatal("success distribution changed in round trip")
	}

	art := OverloadArtifact(ab)
	if art.Experiment != "overload" || art.Mode != "overload-ab" {
		t.Fatalf("artifact identity: %s/%s", art.Experiment, art.Mode)
	}
	want := map[string]bool{
		"unprotected/goodput-per-mcycle": false, "protected/goodput-per-mcycle": false,
		"unprotected/success-p999": false, "protected/success-p999": false,
		"protected/shed-rate": false,
	}
	for _, m := range art.Metrics {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("artifact missing metric %s", name)
		}
	}
}

// TestValidateOverloadABRejectsCorruption: the gate must reject a result
// whose protected side stopped protecting.
func TestValidateOverloadABRejectsCorruption(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(*OverloadAB)) *OverloadAB {
		c := *ab
		f(&c)
		return &c
	}
	cases := []struct {
		name string
		ab   *OverloadAB
	}{
		{"oom aborts", mutate(func(c *OverloadAB) { c.Protected.OOMAborts = 1 })},
		{"no sheds", mutate(func(c *OverloadAB) {
			c.Protected.Overload.ShedPoint, c.Protected.Overload.ShedBulk = 0, 0
		})},
		{"no deadline expiries", mutate(func(c *OverloadAB) { c.Protected.Overload.DeadlineExceeded = 0 })},
		{"baseline sheds", mutate(func(c *OverloadAB) { c.Unprotected.Overload.ShedPoint = 1 })},
		{"p999 regressed", mutate(func(c *OverloadAB) {
			c.Protected.Overload.Success.P999 = c.Unprotected.Overload.Success.P999 + 1
		})},
		{"goodput regressed", mutate(func(c *OverloadAB) {
			c.Protected.Overload.Goodput = c.Unprotected.Overload.Goodput - 1
		})},
	}
	for _, tc := range cases {
		if tc.ab.Validate() == nil {
			t.Errorf("gate accepted corrupted result: %s", tc.name)
		}
	}
}
