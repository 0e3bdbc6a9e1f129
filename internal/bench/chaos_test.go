package bench

import (
	"strings"
	"testing"

	"hcsgc"
)

// TestChaosSoakShort is a miniature of the CI chaos job: a few seeds of
// fig4 under randomized fault schedules with the verifier on. Any
// violation is a real collector bug.
func TestChaosSoakShort(t *testing.T) {
	res, err := RunChaos("fig4", 3, 0, 100, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(res.Runs))
	}
	for _, r := range res.Runs {
		if r.Failed() {
			t.Errorf("seed %d failed: err=%v violations=%v\ngclog:\n%s", r.Seed, r.Err, r.Violations, r.GCLog)
		}
		if !r.OOM && r.VerifierRuns == 0 {
			t.Errorf("seed %d: verifier never ran", r.Seed)
		}
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d", res.Failures)
	}
	var b strings.Builder
	res.WriteText(&b)
	if !strings.Contains(b.String(), "3 runs, 0 failures") {
		t.Fatalf("report: %s", b.String())
	}
}

// TestChaosKVSoakShort soaks the KV serving path with the overload plane
// armed: randomized schedules (which force sheds, deadline expiries, and
// emergency GC on top of allocation faults) must degrade per-request —
// no aborted runs, no verifier violations — and at least one seed must
// actually exercise the overload plane.
func TestChaosKVSoakShort(t *testing.T) {
	res, err := RunChaos("kv", 3, 0, 100, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(res.Runs))
	}
	var degraded uint64
	for _, r := range res.Runs {
		if r.Failed() {
			t.Errorf("seed %d failed: err=%v violations=%v\ngclog:\n%s", r.Seed, r.Err, r.Violations, r.GCLog)
		}
		degraded += r.Sheds + r.OverloadFailures
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if degraded == 0 {
		t.Fatal("no seed in the KV soak recorded a shed or per-request fast-fail; the overload plane never engaged")
	}
	var b strings.Builder
	res.WriteText(&b)
	if !strings.Contains(b.String(), "overload plane:") {
		t.Fatalf("report missing the overload-plane line:\n%s", b.String())
	}
}

// TestChaosReportCarriesReproducer checks a failed run prints the
// reproducer command with its seed.
func TestChaosReportCarriesReproducer(t *testing.T) {
	res := ChaosResult{
		Experiment: "fig4",
		Workload:   "synthetic",
		Failures:   1,
		Runs: []ChaosRun{{
			Seed:   42,
			Config: 4,
			Faults: "seed=42 fail-commit=0.010",
			Violations: []hcsgc.HeapViolation{
				{Check: "stale-ref", Phase: "stw2", Detail: "test"},
			},
		}},
	}
	var b strings.Builder
	res.WriteText(&b)
	out := b.String()
	for _, want := range []string{"FAILED seed 42", "-report chaos -exp fig4 -seed 42 -runs 1", "stale-ref"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestChaosReportDeterministic pins the vtimepure fix in ChaosResult.WriteText:
// the fired-counts block used to iterate the Fired map directly, so the
// same failed run printed its reproduction block in a different order on
// every render. Identical inputs must produce identical report bytes.
func TestChaosReportDeterministic(t *testing.T) {
	res := ChaosResult{
		Experiment: "fig4",
		Workload:   "synthetic",
		Failures:   1,
		Runs: []ChaosRun{{
			Seed:   7,
			Config: 3,
			Faults: "seed=7 fail-commit=0.010",
			Violations: []hcsgc.HeapViolation{
				{Check: "stale-ref", Phase: "stw2", Detail: "test"},
			},
			Fired: map[string]uint64{
				"page-commit": 3, "overload-shed": 1, "deadline-expire": 2,
				"barrier-mark": 9, "emergency-trigger": 4, "driver-trigger": 5,
			},
		}},
	}
	var first strings.Builder
	res.WriteText(&first)
	for i := 0; i < 20; i++ {
		var again strings.Builder
		res.WriteText(&again)
		if again.String() != first.String() {
			t.Fatalf("report bytes differ between renders:\n--- first\n%s\n--- again\n%s",
				first.String(), again.String())
		}
	}
	if !strings.Contains(first.String(), "fired barrier-mark: 9") {
		t.Fatalf("fired block missing from report:\n%s", first.String())
	}
}
