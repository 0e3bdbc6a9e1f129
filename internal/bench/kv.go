package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/workloads"
)

// KVSide is one configuration's aggregated serving measurement in a KV
// A/B comparison: every run's request-latency histograms and tail
// attribution merged slot-wise into one accumulator each, so the side's
// quantiles are exact over the union of all runs' requests.
type KVSide struct {
	ABSide
	// Report is the merged serving report (per-phase dists + SLO curves).
	Report kvstore.Report `json:"report"`
	// Tail is the merged attribution report: SLO violations by cause, the
	// attributed fraction, and the top-K slow-request exemplars.
	Tail hcsgc.TailReport `json:"tail"`
	// GCCycles counts collections across all runs.
	GCCycles int `json:"gc_cycles"`
}

// KVAB is a side-by-side serving-latency comparison of two configurations
// on the KV server workload. The default pair (3 vs 4) isolates
// LAZYRELOCATE: eager relocation concentrates cost in GC-adjacent
// windows, lazy spreads it across mutator barriers — the report shows
// which phases of traffic pay for each choice, and, with every
// SLO-violating request classified (stw-pause / alloc-stall /
// queued-behind-stall / service) and linked to its responsible GC cycle,
// which GC mechanism makes them pay.
type KVAB struct {
	Runs  int     `json:"runs"`
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// SLOThresholdCycles is the violation threshold both sides classify
	// against.
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`

	Base KVSide `json:"base"`
	Test KVSide `json:"test"`
}

// RunKVAB runs the KV server workload under two configurations, runs
// times each with per-run seeds, merging every run's request metrics and
// tail attribution into the side's accumulators. slo is the violation
// threshold in cycles (0 = the attributor's default, 1,000,000).
func RunKVAB(runs int, scale float64, seed int64, baseCfg, testCfg int, slo uint64, sink *hcsgc.TelemetrySink, progress Progress) (*KVAB, error) {
	a, err := newABRun("kv", "kv", runs, scale, seed, sink, progress)
	if err != nil {
		return nil, err
	}
	ab := &KVAB{Runs: runs, Scale: scale, Seed: seed}
	runSide := func(cfgID int) (side KVSide, err error) {
		acc := kvstore.NewMetrics()
		tail := hcsgc.NewTailAttributor(hcsgc.TailConfig{SLOThresholdCycles: slo})
		side.ABSide, side.GCCycles, err = a.side(cfgID, func(cfg *workloads.RunConfig) {
			cfg.KV, cfg.Tail = acc, tail
		})
		side.Report = acc.Report(nil)
		side.Tail = tail.Report()
		ab.SLOThresholdCycles = side.Tail.SLOThresholdCycles
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

// Validate checks the report: both sides pass the serving and attribution
// structural validations, every phase recorded requests, the two sides
// served identical request counts per phase (the schedule is open-loop
// and seeded, so any divergence is a harness bug), each attributor
// observed every request its serving report counted, the comparison saw
// SLO violations at all (a run with none proves nothing), and at least
// 90% of each side's violations carry a concrete cause and responsible
// cycle id.
func (ab *KVAB) Validate() error {
	var violations uint64
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if err := s.side.Report.Validate(); err != nil {
			return fmt.Errorf("kv: %s side: %w", s.name, err)
		}
		if err := s.side.Tail.Validate(); err != nil {
			return fmt.Errorf("kv: %s side: %w", s.name, err)
		}
		var served uint64
		for _, p := range s.side.Report.Phases {
			if p.Dist.Count == 0 {
				return fmt.Errorf("kv: %s side phase %q recorded no requests", s.name, p.Phase)
			}
			served += p.Dist.Count
		}
		if s.side.Tail.Requests != served {
			return fmt.Errorf("kv: %s side attributor observed %d requests, serving report counted %d",
				s.name, s.side.Tail.Requests, served)
		}
		violations += s.side.Tail.Violations
		if s.side.Tail.Violations > 0 && s.side.Tail.AttributedFraction < 0.9 {
			return fmt.Errorf("kv: %s side attributed only %.1f%% of %d violations (want >= 90%%)",
				s.name, 100*s.side.Tail.AttributedFraction, s.side.Tail.Violations)
		}
	}
	for i := range ab.Base.Report.Phases {
		bc := ab.Base.Report.Phases[i].Dist.Count
		tc := ab.Test.Report.Phases[i].Dist.Count
		if bc != tc {
			return fmt.Errorf("kv: phase %q request counts differ: base %d, test %d",
				ab.Base.Report.Phases[i].Phase, bc, tc)
		}
	}
	if violations == 0 {
		return fmt.Errorf("kv: no SLO violations on either side — threshold %d too high for this workload",
			ab.SLOThresholdCycles)
	}
	return nil
}

// WriteText renders the A/B comparison as aligned text tables: the
// per-phase latency distributions, each phase's SLO curve side by side,
// the tail-latency headline, and each side's violations by cause with
// its slowest exemplars.
func (ab *KVAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== KV serving A/B: open-loop load, %d runs, scale %g ===\n",
		ab.Runs, ab.Scale)
	fmt.Fprintf(w, "base: cfg %d (%s)   test: cfg %d (%s)\n",
		ab.Base.Config, ab.Base.Knobs, ab.Test.Config, ab.Test.Knobs)
	fmt.Fprintf(w, "request latency in virtual cycles, enqueue to completion (open-loop arrivals)\n\n")

	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s | %9s %9s %9s %9s\n", "phase",
		"n", "p50", "p99", "p999", "p9999", "p50", "p99", "p999", "p9999")
	for i := range ab.Base.Report.Phases {
		bp, tp := ab.Base.Report.Phases[i], ab.Test.Report.Phases[i]
		fmt.Fprintf(w, "%-10s %9d %9.0f %9.0f %9.0f %9.0f | %9.0f %9.0f %9.0f %9.0f\n",
			bp.Phase, bp.Dist.Count,
			bp.Dist.P50, bp.Dist.P99, bp.Dist.P999, bp.Dist.P9999,
			tp.Dist.P50, tp.Dist.P99, tp.Dist.P999, tp.Dist.P9999)
	}

	for i := range ab.Base.Report.Phases {
		bp, tp := ab.Base.Report.Phases[i], ab.Test.Report.Phases[i]
		fmt.Fprintf(w, "\nSLO curve, %s phase (fraction of requests completing within X cycles)\n", bp.Phase)
		fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "threshold", "base", "test", "delta")
		for j := range bp.SLO {
			b, t := bp.SLO[j], tp.SLO[j]
			fmt.Fprintf(w, "%-16d %10.4f %10.4f %+10.4f\n",
				b.Threshold, b.Fraction, t.Fraction, t.Fraction-b.Fraction)
		}
	}

	fmt.Fprintf(w, "\ntail headline (p999 by phase):\n")
	for i := range ab.Base.Report.Phases {
		bp, tp := ab.Base.Report.Phases[i], ab.Test.Report.Phases[i]
		delta := ""
		if bp.Dist.P999 != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(tp.Dist.P999-bp.Dist.P999)/bp.Dist.P999)
		}
		fmt.Fprintf(w, "  %-8s %9.0f -> %9.0f cycles  %s\n",
			bp.Phase, bp.Dist.P999, tp.Dist.P999, delta)
	}
	b, t := ab.Base.Report, ab.Test.Report
	fmt.Fprintf(w, "ops: get %d, set %d, delete %d, scan %d; hit rate: base %.4f, test %.4f; sessions retired: %d\n",
		b.Ops[loadgen.OpGet.String()], b.Ops[loadgen.OpSet.String()],
		b.Ops[loadgen.OpDelete.String()], b.Ops[loadgen.OpScan.String()],
		hitRate(b), hitRate(t), b.SessionsRetired)
	fmt.Fprintf(w, "exec seconds (mean): base %.4f, test %.4f; GC cycles: base %d, test %d\n",
		ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, ab.Base.GCCycles, ab.Test.GCCycles)

	fmt.Fprintf(w, "\ntail attribution, SLO %d cycles:\n", ab.SLOThresholdCycles)
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		t := s.side.Tail
		fmt.Fprintf(w, "%s (cfg %d): %d requests, %d violations (%.3f%%), %.1f%% attributed to a concrete cause+cycle\n",
			s.name, s.side.Config, t.Requests, t.Violations,
			pct(t.Violations, t.Requests), 100*t.AttributedFraction)
		fmt.Fprintf(w, "  p99 violations by cause:\n")
		fmt.Fprintf(w, "  %-22s %9s %8s %12s %12s %12s\n", "cause", "count", "share", "p50", "p99", "max")
		for _, c := range t.ByCause {
			if c.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-22s %9d %7.1f%% %12.0f %12.0f %12.0f\n",
				c.Cause, c.Count, 100*c.Fraction, c.Dist.P50, c.Dist.P99, c.Dist.Max)
		}
		fmt.Fprintf(w, "  slowest exemplars (latency, cause, responsible cycle):\n")
		for _, ex := range t.TopK[:min(3, len(t.TopK))] {
			fmt.Fprintf(w, "  seq %-8d %-6s %-8s %12d cycles  %-20s cycle %d\n",
				ex.Seq, ex.Op, ex.Phase, ex.LatencyCycles, ex.Cause, ex.Cycle)
		}
	}
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func hitRate(r kvstore.Report) float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}
