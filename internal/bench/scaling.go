package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"

	"hcsgc"
	"hcsgc/internal/workloads"
)

// The scaling sweep (`hcsgc-bench -report scaling`) runs the shared-array
// synthetic (fig4) and the sharded KV server across a ladder of mutator
// counts and reports virtual throughput, speedup and GC cycles per width.
// Every width runs on its own machine model (scalingMachine), so the curve
// measures the collector rather than the core-count fold of
// machine.ExecCycles.
const (
	// scalingConfig is the GC configuration under test:
	// RelocateAllSmallPages, the serving-path default the KV A/B uses.
	scalingConfig = 3
	// scalingSpareCores is machine.Laptop's hardware threads beyond the
	// one its single mutator runs on; every width keeps them beside its
	// mutator cores.
	scalingSpareCores = 3
)

// ScalingMutators is the default mutator-count ladder.
var ScalingMutators = []int{1, 2, 4, 8, 16, 64}

// scalingWorkloads are the swept workloads, in report order: fig4 shares
// one array across every mutator (maximum heap/LLC crosstalk), kv shards
// by thread.
var scalingWorkloads = []string{"fig4", "kv"}

// scalingMachine is the machine model of an n-mutator point: the laptop's
// clock with its spare hardware threads kept beside n mutator cores. At
// n = 1 it is machine.Laptop.
func scalingMachine(n int) hcsgc.Machine {
	return hcsgc.Machine{Cores: n + scalingSpareCores, CyclesPerSecond: hcsgc.LaptopMachine.CyclesPerSecond}
}

// ScalePoint is one (workload, mutator count) measurement.
type ScalePoint struct {
	Mutators int `json:"mutators"`
	// Throughput is completed operations per simulated second.
	Throughput float64 `json:"throughput"`
	// Speedup is Throughput relative to the series' smallest mutator
	// count.
	Speedup     float64 `json:"speedup"`
	Ops         uint64  `json:"ops"`
	ExecSeconds float64 `json:"exec_seconds"`
	GCCycles    int     `json:"gc_cycles"`
	Check       uint64  `json:"check"`
}

// ScaleSeries is one workload's curve across the mutator ladder.
type ScaleSeries struct {
	Workload string       `json:"workload"`
	Points   []ScalePoint `json:"points"`
}

// ScaleSweep is the scaling report's result.
type ScaleSweep struct {
	Scale    float64       `json:"scale"`
	Seed     int64         `json:"seed"`
	Mutators []int         `json:"mutators"`
	Series   []ScaleSeries `json:"series"`
}

// Help strings for the hcsgc_scaling_* gauges (constant so the
// telemetrynames consistency check can see them).
const (
	helpScalingThroughput = "scale-sweep throughput in completed operations per simulated second"
	helpScalingSpeedup    = "scale-sweep throughput relative to the smallest mutator count"
)

// RunScaleSweep runs every scaling workload across the mutator ladder.
// muts nil/empty selects ScalingMutators. With a telemetry sink attached
// the sweep exports its curve as hcsgc_scaling_* gauges.
func RunScaleSweep(muts []int, scale float64, seed int64, sink *hcsgc.TelemetrySink, progress Progress) (*ScaleSweep, error) {
	if len(muts) == 0 {
		muts = ScalingMutators
	}
	ladder := append([]int(nil), muts...)
	sort.Ints(ladder)
	uniq := ladder[:0]
	for _, n := range ladder {
		if n < 1 {
			return nil, fmt.Errorf("bench: scale sweep: mutator count %d < 1", n)
		}
		if len(uniq) == 0 || uniq[len(uniq)-1] != n {
			uniq = append(uniq, n)
		}
	}
	ladder = uniq
	sweep := &ScaleSweep{Scale: scale, Seed: seed, Mutators: ladder}
	knobs := KnobsFor(scalingConfig)

	for _, name := range scalingWorkloads {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		series := ScaleSeries{Workload: name}
		// The shared-array synthetic's checksum is mutator-count invariant
		// by construction; enforce it so a partitioning bug cannot
		// masquerade as a scaling result.
		enforceCheck := name == "fig4"
		checks := checkGuard{}
		for _, n := range ladder {
			cfg := workloads.RunConfig{
				Knobs:     knobs,
				Seed:      seed,
				Scale:     scale,
				Mutators:  n,
				Machine:   scalingMachine(n),
				Telemetry: sink,
			}
			if name == "kv" {
				// Open-loop arrivals: a fixed rate makes every width report
				// the schedule, not the server. Scale the offered load with
				// the thread count so the series measures whether the
				// runtime tracks N× the load with N× the servers —
				// per-thread load is constant, runtime pressure (alloc
				// rate, GC frequency) grows with N.
				cfg.LoadFactor = float64(n)
			}
			out, err := w.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: scale sweep: %s x%d: %w", name, n, err)
			}
			if want, ok := checks.see(0, out.Check); enforceCheck && !ok {
				return nil, fmt.Errorf(
					"bench: scale sweep: %s checksum %d at %d mutators != %d — mutator partitioning changed program results",
					name, out.Check, n, want)
			}
			pt := ScalePoint{
				Mutators:    n,
				Ops:         out.Ops,
				ExecSeconds: out.ExecSeconds,
				GCCycles:    out.GCCycleCount,
				Check:       out.Check,
			}
			if out.ExecSeconds > 0 {
				pt.Throughput = float64(out.Ops) / out.ExecSeconds
			}
			series.Points = append(series.Points, pt)
			progress.logf("scale %-4s x%-3d  %12.0f ops/s", name, n, pt.Throughput)
		}
		if base := series.Points[0].Throughput; base > 0 {
			for i := range series.Points {
				series.Points[i].Speedup = series.Points[i].Throughput / base
			}
		}
		sweep.Series = append(sweep.Series, series)
	}

	if sink != nil {
		reg := sink.Metrics()
		for _, s := range sweep.Series {
			for _, pt := range s.Points {
				m := strconv.Itoa(pt.Mutators)
				reg.Gauge("hcsgc_scaling_throughput", helpScalingThroughput,
					"workload", s.Workload, "mutators", m).Set(pt.Throughput)
				reg.Gauge("hcsgc_scaling_speedup", helpScalingSpeedup,
					"workload", s.Workload, "mutators", m).Set(pt.Speedup)
			}
		}
	}
	return sweep, nil
}

// Validate checks structural well-formedness: every series covers the
// full ladder in ascending order with positive throughput.
func (s *ScaleSweep) Validate() error {
	if len(s.Series) == 0 {
		return fmt.Errorf("bench: scale sweep has no series")
	}
	for _, ser := range s.Series {
		if len(ser.Points) != len(s.Mutators) {
			return fmt.Errorf("bench: %s: %d points for %d mutator counts", ser.Workload, len(ser.Points), len(s.Mutators))
		}
		for i, pt := range ser.Points {
			if pt.Mutators != s.Mutators[i] {
				return fmt.Errorf("bench: %s point %d: mutators %d, want %d", ser.Workload, i, pt.Mutators, s.Mutators[i])
			}
			if pt.Throughput <= 0 {
				return fmt.Errorf("bench: %s x%d: non-positive throughput %g", ser.Workload, pt.Mutators, pt.Throughput)
			}
		}
	}
	return nil
}

// WriteText renders the sweep as text: per workload, the
// throughput/speedup/GC-cycle ladder with each width's core count.
func (s *ScaleSweep) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== scaling sweep: mutators %v, scale %g, seed %d ===\n", s.Mutators, s.Scale, s.Seed)
	for _, ser := range s.Series {
		fmt.Fprintf(w, "\n--- %s ---\n", ser.Workload)
		fmt.Fprintf(w, "%8s %6s %14s %8s %8s\n", "mutators", "cores", "ops/sec", "speedup", "gc")
		for _, pt := range ser.Points {
			fmt.Fprintf(w, "%8d %6d %14.0f %8.2f %8d\n",
				pt.Mutators, scalingMachine(pt.Mutators).Cores, pt.Throughput, pt.Speedup, pt.GCCycles)
		}
	}
}

// ScalingArtifact normalizes the sweep into the BENCH_scaling.json shape:
// throughput per (workload, width).
func ScalingArtifact(s *ScaleSweep) Artifact {
	a := Artifact{
		Experiment: "scaling",
		Mode:       "scale-sweep",
		Runs:       len(s.Mutators),
		Scale:      s.Scale,
		Seed:       s.Seed,
		GoVersion:  runtime.Version(),
	}
	for _, ser := range s.Series {
		for _, pt := range ser.Points {
			a.Metrics = append(a.Metrics, BenchMetric{
				Name:   fmt.Sprintf("%s/x%d/throughput", ser.Workload, pt.Mutators),
				Value:  pt.Throughput,
				Better: "higher",
			})
		}
	}
	return a
}
