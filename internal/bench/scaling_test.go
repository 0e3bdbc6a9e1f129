package bench

import (
	"bytes"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/machine"
)

// TestScalingMachineSweepsCores: every width keeps the laptop's spare
// hardware threads beside its mutators, so no point oversubscribes the
// machine and folds onto the core count.
func TestScalingMachineSweepsCores(t *testing.T) {
	if got, want := scalingMachine(1), hcsgc.LaptopMachine; got != want {
		t.Errorf("x1 machine = %+v, want the laptop %+v", got, want)
	}
	for _, n := range ScalingMutators {
		m := scalingMachine(n)
		if m.Cores != n+3 || m.CyclesPerSecond != hcsgc.LaptopMachine.CyclesPerSecond {
			t.Errorf("x%d machine = %+v, want %d cores at the laptop clock", n, m, n+3)
		}
		// n equal mutators with GC work inside the spare capacity: the
		// fold must hide the GC work, not serialise onto the cores.
		l := machine.Ledger{MutatorCycles: make([]uint64, n), GCCycles: 2000}
		for i := range l.MutatorCycles {
			l.MutatorCycles[i] = 1000
		}
		if got := m.ExecCycles(l); got != 1000 {
			t.Errorf("x%d: ExecCycles = %g, want 1000 (GC hidden on spare cores)", n, got)
		}
	}
}

// TestRunScaleSweepSmall runs the real sweep on a tiny ladder and checks
// the structural contract end to end: validation passes, the fig4
// checksum is mutator-count invariant, and the text report and the
// normalized artifact carry the curve.
func TestRunScaleSweepSmall(t *testing.T) {
	sweep, err := RunScaleSweep([]int{1, 2, 4}, 0.02, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Series) != 2 {
		t.Fatalf("series = %d, want fig4 + kv", len(sweep.Series))
	}
	for _, ser := range sweep.Series {
		if ser.Points[0].Speedup != 1 {
			t.Errorf("%s: baseline speedup = %g, want 1", ser.Workload, ser.Points[0].Speedup)
		}
		if ser.Workload == "fig4" {
			for _, pt := range ser.Points[1:] {
				if pt.Check != ser.Points[0].Check {
					t.Errorf("fig4 checksum %d at x%d != %d", pt.Check, pt.Mutators, ser.Points[0].Check)
				}
			}
		}
	}

	var b bytes.Buffer
	sweep.WriteText(&b)
	out := b.String()
	for _, want := range []string{"--- fig4 ---", "--- kv ---", "cores"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	art := ScalingArtifact(sweep)
	if art.Experiment != "scaling" || art.Mode != "scale-sweep" {
		t.Errorf("artifact header = %q/%q", art.Experiment, art.Mode)
	}
	names := map[string]bool{}
	for _, m := range art.Metrics {
		names[m.Name] = true
		if strings.HasSuffix(m.Name, "/throughput") {
			if m.Better != "higher" {
				t.Errorf("%s better = %q, want higher", m.Name, m.Better)
			}
			if m.Value <= 0 {
				t.Errorf("%s = %g", m.Name, m.Value)
			}
		}
	}
	for _, want := range []string{
		"fig4/x1/throughput", "fig4/x4/throughput", "kv/x2/throughput",
	} {
		if !names[want] {
			t.Errorf("artifact missing metric %q (have %v)", want, names)
		}
	}
}

// TestRunScaleSweepRejectsBadLadder: mutator counts below one fail fast.
func TestRunScaleSweepRejectsBadLadder(t *testing.T) {
	if _, err := RunScaleSweep([]int{0, 2}, 0.02, 1, nil, nil); err == nil {
		t.Fatal("mutator count 0 must error")
	}
}
