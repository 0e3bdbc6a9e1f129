package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/telemetry/latency"
	"hcsgc/internal/workloads"
)

// LatencySide is one configuration's aggregated latency measurement in an
// A/B comparison: per-run trackers merged exactly (HDR slot addition,
// worst-case MMU per window).
type LatencySide struct {
	ABSide
	// Report is the aggregate across runs; per-run flight records are not
	// merged (each run's recorder stands alone).
	Report *hcsgc.LatencyReport `json:"report"`
	// FlightCycles counts GC cycles recorded across all runs.
	FlightCycles uint64 `json:"flight_cycles"`
}

// LatencyAB is a side-by-side latency comparison of two configurations on
// one workload: pause/phase/stall percentiles, the MMU window ladder, and
// the per-path barrier profile. Its headline is the LAZYRELOCATE story —
// relocation work leaving the GC drain and reappearing as mutator barrier
// relocate hits.
type LatencyAB struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Runs       int     `json:"runs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`

	Base LatencySide `json:"base"`
	Test LatencySide `json:"test"`
}

// RunLatencyAB runs the experiment's workload under two configurations
// with a fresh latency tracker per run and aggregates the trackers.
// baseCfg/testCfg are Table 2 config ids; the -latency default pair is
// 3 (RelocateAllSmallPages) vs 4 (+LazyRelocate), the pair that shows
// relocation shifting into mutator barriers.
func RunLatencyAB(expID string, runs int, scale float64, seed int64, baseCfg, testCfg int, sink *hcsgc.TelemetrySink, progress Progress) (*LatencyAB, error) {
	a, err := newABRun("latency "+expID, expID, runs, scale, seed, sink, progress)
	if err != nil {
		return nil, err
	}
	ab := &LatencyAB{
		Experiment: expID,
		Workload:   a.w.Name,
		Runs:       runs,
		Scale:      scale,
		Seed:       seed,
	}
	runSide := func(cfgID int) (side LatencySide, err error) {
		var trackers []*hcsgc.LatencyTracker
		side.ABSide, _, err = a.side(cfgID, func(cfg *workloads.RunConfig) {
			// Discard automatic dumps: a bench OOM already fails the run.
			cfg.Latency = hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard})
			trackers = append(trackers, cfg.Latency)
		})
		side.Report = latency.Aggregate(trackers)
		side.FlightCycles = side.Report.Cycles
		return side, err
	}
	if ab.Base, err = runSide(baseCfg); err != nil {
		return nil, err
	}
	if ab.Test, err = runSide(testCfg); err != nil {
		return nil, err
	}
	return ab, nil
}

// Validate sanity-checks the report's well-formedness: recorded pauses on
// both sides, MMU values inside [0,1] at every window, and at least one
// recorded GC cycle.
func (ab *LatencyAB) Validate() error {
	check := func(name string, s *LatencySide) error {
		r := s.Report
		if r == nil {
			return fmt.Errorf("latency: %s side has no report", name)
		}
		for _, pause := range []string{"stw1", "stw2", "stw3"} {
			if r.Pauses[pause].Count == 0 {
				return fmt.Errorf("latency: %s side recorded no %s pauses", name, pause)
			}
		}
		for _, pt := range r.MMU.Windows {
			if pt.MMU < 0 || pt.MMU > 1 {
				return fmt.Errorf("latency: %s side MMU(%d) = %v outside [0,1]",
					name, pt.WindowCycles, pt.MMU)
			}
		}
		if s.FlightCycles == 0 {
			return fmt.Errorf("latency: %s side recorded no GC cycles", name)
		}
		return nil
	}
	if err := check("base", &ab.Base); err != nil {
		return err
	}
	return check("test", &ab.Test)
}

// latencyReportOrder fixes the row order of the text report.
var (
	latencyPauseOrder   = []string{"stw1", "stw2", "stw3"}
	latencyPhaseOrder   = []string{"mark", "ec_select", "relocate"}
	latencyBarrierOrder = []string{"mark", "relocate", "remap", "hotmap_record"}
)

// WriteText renders the A/B comparison as aligned text tables: per-phase
// percentiles, the MMU ladder, and the barrier profile with the
// relocation-shift headline.
func (ab *LatencyAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== latency A/B: %s (%s), %d runs, scale %g ===\n",
		ab.Experiment, ab.Workload, ab.Runs, ab.Scale)
	fmt.Fprintf(w, "base: cfg %d (%s)   test: cfg %d (%s)\n",
		ab.Base.Config, ab.Base.Knobs, ab.Test.Config, ab.Test.Knobs)
	fmt.Fprintf(w, "all durations in simulated cycles\n\n")
	b, t := ab.Base.Report, ab.Test.Report

	distRow := func(name string, bd, td hcsgc.LatencyDist) {
		fmt.Fprintf(w, "%-22s %8d %9.0f %9.0f %9.0f | %8d %9.0f %9.0f %9.0f\n",
			name, bd.Count, bd.P50, bd.P99, bd.Max, td.Count, td.P50, td.P99, td.Max)
	}
	fmt.Fprintf(w, "%-22s %8s %9s %9s %9s | %8s %9s %9s %9s\n", "distribution",
		"n", "p50", "p99", "max", "n", "p50", "p99", "max")
	for _, p := range latencyPauseOrder {
		distRow("pause "+p, b.Pauses[p], t.Pauses[p])
	}
	for _, ph := range latencyPhaseOrder {
		distRow("phase "+ph, b.Phases[ph], t.Phases[ph])
	}
	distRow("alloc stall", b.Stall, t.Stall)

	fmt.Fprintf(w, "\n%-22s %12s %12s %10s\n", "MMU window", "base", "test", "delta")
	testMMU := map[uint64]float64{}
	for _, pt := range t.MMU.Windows {
		testMMU[pt.WindowCycles] = pt.MMU
	}
	for _, pt := range b.MMU.Windows {
		tv := testMMU[pt.WindowCycles]
		delta := ""
		if pt.MMU != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(tv-pt.MMU)/pt.MMU)
		}
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %10s\n",
			fmt.Sprintf("MMU(%d)", pt.WindowCycles), pt.MMU, tv, delta)
	}
	fmt.Fprintf(w, "%-22s %12.4f %12.4f\n", "utilization", b.MMU.Utilization, t.MMU.Utilization)

	fmt.Fprintf(w, "\n%-22s %12s %12s %10s %11s\n", "barrier path",
		"base hits", "test hits", "delta", "test p99")
	for _, p := range latencyBarrierOrder {
		bp, tp := b.Barrier[p], t.Barrier[p]
		delta := ""
		if bp.Hits != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(float64(tp.Hits)-float64(bp.Hits))/float64(bp.Hits))
		}
		fmt.Fprintf(w, "%-22s %12d %12d %10s %11.0f\n", p, bp.Hits, tp.Hits, delta, tp.Sampled.P99)
	}
	fmt.Fprintf(w, "\nrelocation shift: barrier relocate hits %d -> %d; GC drain p50 %.0f -> %.0f cycles\n",
		b.Barrier["relocate"].Hits, t.Barrier["relocate"].Hits,
		b.Phases["relocate"].P50, t.Phases["relocate"].P50)
	fmt.Fprintf(w, "exec seconds (mean): base %.4f, test %.4f; cycles: base %d, test %d; flight dumps: base %d, test %d\n",
		ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds,
		ab.Base.FlightCycles, ab.Test.FlightCycles, b.FlightDumps, t.FlightDumps)
}
