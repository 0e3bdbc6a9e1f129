package bench

import (
	"fmt"
	"io"
	"runtime"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/overload"
	"hcsgc/internal/workloads"
)

// OverloadSide is one arm of the overload A/B: the KV serving workload at
// the same past-sustainable load, with the overload-protection plane armed
// (Protected) or absent (Unprotected), aggregated across runs.
type OverloadSide struct {
	Protected bool `json:"protected"`
	Runs      int  `json:"runs"`
	// Overload is the merged outcome accounting: admitted/shed counts,
	// deadline expiries, OOM failures, retries, and the goodput/badput
	// split with the successful-request latency distribution.
	Overload hcsgc.OverloadReport `json:"overload"`
	// Tail is the merged request-level attribution of this side's SLO
	// violations (successful requests only — a shed request has no
	// latency to attribute).
	Tail hcsgc.TailReport `json:"tail"`
	// Report is the merged serving report for the successful requests.
	Report kvstore.Report `json:"report"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// GCCycles counts collections across all runs.
	GCCycles int `json:"gc_cycles"`
	// OOMAborts counts runs abandoned by heap exhaustion. The protected
	// side must always be 0; the unprotected side should be too (OOM
	// degrades to per-request failures there as well), and any abort is
	// surfaced rather than silently dropped from the aggregate.
	OOMAborts int `json:"oom_aborts"`
}

// OverloadAB is the headline robustness comparison: the same GC
// configuration serving the same schedule at a load factor past the
// sustainable point, with and without the overload-protection plane. The
// protected side trades a visible shed rate for bounded tails and equal or
// better goodput; the unprotected side keeps every request and lets the
// convoy eat its p999.
//
// Unlike the throughput A/Bs there is no checksum cross-check between the
// sides: shedding requests changes which operations execute, by design.
type OverloadAB struct {
	Runs       int     `json:"runs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Config     int     `json:"config"`
	Knobs      string  `json:"knobs"`
	LoadFactor float64 `json:"load_factor"`
	// SLOThresholdCycles is the goodput SLO both sides account against
	// (and the tail attributor's violation threshold).
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	// DeadlineCycles is the per-request deadline the protected side arms.
	DeadlineCycles uint64 `json:"deadline_cycles"`

	Unprotected OverloadSide `json:"unprotected"`
	Protected   OverloadSide `json:"protected"`
}

// overloadLoadFactor is the acceptance point: twice the sustainable
// arrival rate.
const overloadLoadFactor = 2

// RunOverloadAB runs the KV server workload at overloadLoadFactor times
// the sustainable arrival rate under one GC configuration, runs times per
// side with per-run seeds: once unprotected, once with the overload plane
// armed. The load generator's schedule is identical across sides (the
// deadline knob consumes no RNG draws), so the comparison isolates the
// protection plane.
func RunOverloadAB(runs int, scale float64, seed int64, cfgID int, sink *hcsgc.TelemetrySink, progress Progress) (*OverloadAB, error) {
	w, err := workloads.Get("kv")
	if err != nil {
		return nil, err
	}
	pol := overload.Policy{Seed: seed}.WithDefaults()
	knobs := KnobsFor(cfgID)
	ab := &OverloadAB{
		Runs: runs, Scale: scale, Seed: seed, Config: cfgID,
		Knobs: knobs.String(), LoadFactor: overloadLoadFactor,
		SLOThresholdCycles: pol.GoodputSLOCycles,
		DeadlineCycles:     pol.DeadlineCycles,
	}

	runSide := func(protected bool) (OverloadSide, error) {
		side := OverloadSide{Protected: protected, Runs: runs}
		acc := kvstore.NewMetrics()
		ost := overload.NewStats()
		tail := hcsgc.NewTailAttributor(hcsgc.TailConfig{SLOThresholdCycles: pol.GoodputSLOCycles})
		name := "unprotected"
		if protected {
			name = "protected"
		}
		var exec float64
		var finished int
		for run := 0; run < runs; run++ {
			cfg := workloads.RunConfig{
				Knobs:         knobs,
				Seed:          seed + int64(run),
				Scale:         scale,
				LoadFactor:    overloadLoadFactor,
				KV:            acc,
				OverloadStats: ost,
				Tail:          tail,
				Telemetry:     sink,
			}
			if protected {
				p := pol
				cfg.Overload = &p
			}
			out, err := w.Run(cfg)
			if err != nil {
				// Heap exhaustion abandons the run (the guard path); count
				// it rather than fail the whole comparison — the validator
				// decides whether aborts disqualify the result.
				side.OOMAborts++
				progress.logf("overload %-11s run %d/%d ABORTED: %v", name, run+1, runs, err)
				continue
			}
			finished++
			exec += out.ExecSeconds
			side.GCCycles += out.GCCycleCount
			progress.logf("overload %-11s run %d/%d", name, run+1, runs)
		}
		if finished > 0 {
			side.MeanExecSeconds = exec / float64(finished)
		}
		side.Report = acc.Report(nil)
		side.Overload = ost.Report(pol.GoodputSLOCycles)
		side.Tail = tail.Report()
		return side, nil
	}

	if ab.Unprotected, err = runSide(false); err != nil {
		return nil, err
	}
	if ab.Protected, err = runSide(true); err != nil {
		return nil, err
	}
	return ab, nil
}

// Validate is the acceptance gate for the overload comparison:
//
//   - structural validity of every per-side report, and no OOM-aborted
//     runs on either side (heap exhaustion must degrade, not abort);
//   - the unprotected side actually melted: it saw SLO violations;
//   - the protected side actually protected: nonzero sheds AND nonzero
//     deadline expiries (both mechanisms exercised), fewer SLO violations
//     than the unprotected side, with at least 99% of the survivors
//     attributed to a concrete cause and cycle;
//   - the protection bought something: the protected side's
//     successful-request p999 is below the unprotected side's, and its
//     goodput is no worse.
func (ab *OverloadAB) Validate() error {
	for _, s := range []struct {
		name string
		side *OverloadSide
	}{{"unprotected", &ab.Unprotected}, {"protected", &ab.Protected}} {
		if err := s.side.Report.Validate(); err != nil {
			return fmt.Errorf("overload: %s side serving report: %w", s.name, err)
		}
		if err := s.side.Overload.Validate(); err != nil {
			return fmt.Errorf("overload: %s side: %w", s.name, err)
		}
		if err := s.side.Tail.Validate(); err != nil {
			return fmt.Errorf("overload: %s side tail report: %w", s.name, err)
		}
		if s.side.OOMAborts > 0 {
			return fmt.Errorf("overload: %s side had %d OOM-aborted runs — exhaustion must degrade to shedding, not abort",
				s.name, s.side.OOMAborts)
		}
		if s.side.Tail.Requests != s.side.Overload.Successes {
			return fmt.Errorf("overload: %s side attributor observed %d requests, outcome accounting counted %d successes",
				s.name, s.side.Tail.Requests, s.side.Overload.Successes)
		}
	}
	u, p := &ab.Unprotected.Overload, &ab.Protected.Overload
	if sheds := u.ShedPoint + u.ShedBulk; sheds != 0 {
		return fmt.Errorf("overload: unprotected side shed %d requests — admission control leaked into the baseline", sheds)
	}
	if ab.Unprotected.Tail.Violations == 0 {
		return fmt.Errorf("overload: unprotected side saw no SLO violations at load factor %g — not an overload",
			ab.LoadFactor)
	}
	if sheds := p.ShedPoint + p.ShedBulk; sheds == 0 {
		return fmt.Errorf("overload: protected side shed nothing — admission control never engaged")
	}
	if p.DeadlineExceeded == 0 {
		return fmt.Errorf("overload: protected side had no deadline expiries — fast-fail never engaged")
	}
	if pv, uv := ab.Protected.Tail.Violations, ab.Unprotected.Tail.Violations; pv >= uv {
		return fmt.Errorf("overload: protected side has %d SLO violations, unprotected %d — protection must reduce them",
			pv, uv)
	}
	if f := ab.Protected.Tail.AttributedFraction; f < 0.99 {
		return fmt.Errorf("overload: protected side attributed only %.1f%% of its %d violations (want >= 99%%)",
			100*f, ab.Protected.Tail.Violations)
	}
	if pp, up := p.Success.P999, u.Success.P999; pp >= up {
		return fmt.Errorf("overload: protected successful-request p999 %.0f not below unprotected %.0f",
			pp, up)
	}
	if p.Goodput < u.Goodput {
		return fmt.Errorf("overload: protected goodput %d below unprotected %d — protection may not cost throughput",
			p.Goodput, u.Goodput)
	}
	return nil
}

// WriteText renders the comparison as aligned text: the goodput headline,
// the outcome breakdown per side, and the successful-request tails the
// protection bounded.
func (ab *OverloadAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== KV overload A/B: %d runs, scale %g, load factor %g, cfg %d (%s) ===\n",
		ab.Runs, ab.Scale, ab.LoadFactor, ab.Config, ab.Knobs)
	fmt.Fprintf(w, "SLO %d cycles, per-request deadline %d cycles\n\n",
		ab.SLOThresholdCycles, ab.DeadlineCycles)

	fmt.Fprintf(w, "%-28s %15s %15s\n", "", "unprotected", "protected")
	rows := []struct {
		name string
		fn   func(*OverloadSide) string
	}{
		{"goodput (within-SLO ok)", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Goodput) }},
		{"goodput / Mcycle", func(s *OverloadSide) string { return fmt.Sprintf("%.2f", s.Overload.GoodputPerMcycle) }},
		{"badput (late + failed)", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Badput) }},
		{"successes", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Successes) }},
		{"shed (point / bulk)", func(s *OverloadSide) string {
			return fmt.Sprintf("%d / %d", s.Overload.ShedPoint, s.Overload.ShedBulk)
		}},
		{"shed rate", func(s *OverloadSide) string { return fmt.Sprintf("%.3f", s.Overload.ShedRate) }},
		{"deadline expiries", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.DeadlineExceeded) }},
		{"OOM failures", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.OOMFailures) }},
		{"retries", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Retries) }},
		{"failures (retries spent)", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Failures) }},
		{"success p50", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.P50) }},
		{"success p99", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.P99) }},
		{"success p999", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.P999) }},
		{"success max", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.Max) }},
		{"SLO violations", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Tail.Violations) }},
		{"violations attributed", func(s *OverloadSide) string {
			return fmt.Sprintf("%.1f%%", 100*s.Tail.AttributedFraction)
		}},
		{"state transitions", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Transitions) }},
		{"emergency GCs", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.EmergencyGCs) }},
		{"GC cycles", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.GCCycles) }},
		{"exec seconds (mean)", func(s *OverloadSide) string { return fmt.Sprintf("%.4f", s.MeanExecSeconds) }},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %15s %15s\n", r.name, r.fn(&ab.Unprotected), r.fn(&ab.Protected))
	}

	fmt.Fprintf(w, "\nviolation causes (protected side):\n")
	for _, c := range ab.Protected.Tail.ByCause {
		if c.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s %9d (%5.1f%%)\n", c.Cause, c.Count, 100*c.Fraction)
	}
}

// OverloadArtifact normalizes an overload A/B result for the committed
// baseline comparison: per side, the goodput rate, shed rate, and the
// successful-request tail quantiles. Only the protected side's stable
// gate metrics carry a comparison direction; the unprotected side is a
// controlled meltdown whose numbers swing tens of percent run to run
// (unbounded queues amplify scheduling noise), and the protected
// failure/p99 split shifts with shed timing — those are recorded as
// informational so the CI baseline compare does not cry wolf.
func OverloadArtifact(ab *OverloadAB) Artifact {
	a := Artifact{
		Experiment: "overload",
		Mode:       "overload-ab",
		Runs:       ab.Runs,
		Scale:      ab.Scale,
		Seed:       ab.Seed,
		GoVersion:  runtime.Version(),
	}
	for _, s := range []struct {
		name  string
		side  *OverloadSide
		gated bool
	}{{"unprotected", &ab.Unprotected, false}, {"protected", &ab.Protected, true}} {
		o := &s.side.Overload
		steady := kvPhaseDist(s.side.Report, loadgen.PhaseNames[loadgen.PhaseSteady])
		dir := func(d string) string {
			if !s.gated {
				return ""
			}
			return d
		}
		a.Metrics = append(a.Metrics,
			BenchMetric{s.name + "/goodput-per-mcycle", o.GoodputPerMcycle, dir("higher")},
			BenchMetric{s.name + "/shed-rate", o.ShedRate, ""},
			BenchMetric{s.name + "/failures", float64(o.Failures), ""},
			BenchMetric{s.name + "/success-p99", o.Success.P99, dir("lower")},
			BenchMetric{s.name + "/success-p999", o.Success.P999, dir("lower")},
			BenchMetric{s.name + "/p99-steady", steady.P99, ""},
		)
	}
	return a
}
