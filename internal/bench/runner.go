package bench

import (
	"fmt"

	"hcsgc"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// Spec describes one experiment: a workload swept over configurations.
type Spec struct {
	// ID is the experiment id (e.g. "fig4").
	ID string
	// Title is a human-readable description.
	Title string
	// Runs is the sample size per configuration (the paper uses 30 for
	// synthetic/JGraphT, 5 for DaCapo and SPECjbb).
	Runs int
	// Scale passes through to the workload (0 = workload default).
	Scale float64
	// Configs lists the Table 2 configs to run (nil = all 19).
	Configs []int
	// Seed is the base seed; run r of any config uses Seed + r, so all
	// configs see identical workload randomness per run index.
	Seed int64
	// ScoreMetrics, when set, means the workload's Scores (not execution
	// time) are the headline metrics (SPECjbb).
	ScoreMetrics []string
	// Telemetry, when non-nil, attaches the live observability sink to
	// every run of the experiment (cmd/hcsgc-bench -telemetry-addr).
	Telemetry *hcsgc.TelemetrySink
}

// ConfigResult aggregates one configuration's runs.
type ConfigResult struct {
	Config int
	Knobs  hcsgc.Knobs

	// Times are per-run execution seconds (simulated).
	Times []float64
	Box   stats.BoxPlot
	Boot  stats.Bootstrap
	// TimeVsBaseline is the normalised mean delta against Config 0
	// (negative = speedup).
	TimeVsBaseline float64

	// Cache statistics: per-run means and deltas vs Config 0.
	Loads, L1Misses, LLCMisses       float64
	LoadsVsBase, L1VsBase, LLCVsBase float64
	// GC statistics.
	GCCycles      float64
	MedianECSmall float64
	MutatorReloc  float64
	GCReloc       float64

	// ScoreBoots holds bootstrap estimates for workload scores (SPECjbb).
	ScoreBoots map[string]stats.Bootstrap
}

// Result is a full experiment.
type Result struct {
	Spec      Spec
	Workload  string
	PerConfig []ConfigResult
	// HeapSeries is the heap-usage-over-time trace of one Config 0 run
	// (the rightmost plot of each figure).
	HeapSeries []workloads.HeapSample
	// Checks maps run index -> workload checksum; the runner verifies all
	// configs agree per run index.
	Checks map[int]uint64
}

// Progress receives runner progress messages (may be nil).
type Progress func(format string, args ...any)

// logf forwards to p; a nil Progress discards.
func (p Progress) logf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// checkGuard pins the checksum first seen under each key (a run index,
// or one key for a whole ladder): a later run under the same key must
// reproduce it, or a configuration changed program results.
type checkGuard map[int]uint64

// see records check under key and reports whether it matches the first
// checksum recorded there; want is that first checksum.
func (g checkGuard) see(key int, check uint64) (want uint64, ok bool) {
	if prev, seen := g[key]; seen {
		return prev, prev == check
	}
	g[key] = check
	return check, true
}

// Run executes the experiment.
func Run(spec Spec, progress Progress) (Result, error) {
	w, err := workloads.Get(spec.ID)
	if err != nil {
		return Result{}, err
	}
	if spec.Runs <= 0 {
		spec.Runs = 5
	}
	configs := spec.Configs
	if len(configs) == 0 {
		configs = AllConfigs()
	}
	res := Result{Spec: spec, Workload: w.Name, Checks: map[int]uint64{}}

	for _, cfgID := range configs {
		knobs := KnobsFor(cfgID)
		cr := ConfigResult{Config: cfgID, Knobs: knobs, ScoreBoots: map[string]stats.Bootstrap{}}
		scoreSamples := map[string][]float64{}
		var loads, l1, llc, cycles, medEC, mutReloc, gcReloc float64
		for run := 0; run < spec.Runs; run++ {
			out, err := w.Run(workloads.RunConfig{
				Knobs:     knobs,
				Seed:      spec.Seed + int64(run),
				Scale:     spec.Scale,
				Telemetry: spec.Telemetry,
			})
			if err != nil {
				return Result{}, fmt.Errorf("bench %s: config %d run %d: %w", spec.ID, cfgID, run, err)
			}
			if want, ok := checkGuard(res.Checks).see(run, out.Check); !ok {
				return Result{}, fmt.Errorf(
					"bench %s: config %d run %d checksum %d != expected %d — GC configuration changed program results",
					spec.ID, cfgID, run, out.Check, want)
			}
			cr.Times = append(cr.Times, out.ExecSeconds)
			loads += float64(out.Loads)
			l1 += float64(out.L1Misses)
			llc += float64(out.LLCMisses)
			cycles += float64(out.GCCycleCount)
			medEC += out.MedianECSmall
			mutReloc += float64(out.MutatorReloc)
			gcReloc += float64(out.GCReloc)
			for k, v := range out.Scores {
				scoreSamples[k] = append(scoreSamples[k], v)
			}
			if cfgID == 0 && run == 0 {
				res.HeapSeries = out.HeapSamples
			}
		}
		n := float64(spec.Runs)
		cr.Loads, cr.L1Misses, cr.LLCMisses = loads/n, l1/n, llc/n
		cr.GCCycles, cr.MedianECSmall = cycles/n, medEC/n
		cr.MutatorReloc, cr.GCReloc = mutReloc/n, gcReloc/n
		cr.Box = stats.NewBoxPlot(cr.Times)
		cr.Boot = stats.BootstrapMean(cr.Times, stats.DefaultResamples, spec.Seed+int64(cfgID))
		for k, sample := range scoreSamples {
			cr.ScoreBoots[k] = stats.BootstrapMean(sample, stats.DefaultResamples, spec.Seed+int64(cfgID))
		}
		res.PerConfig = append(res.PerConfig, cr)
		progress.logf("%s config %-2d  %-28s mean %.4fs", spec.ID, cfgID, knobs, cr.Boot.Mean)
	}

	// Normalise against Config 0 when present.
	var base *ConfigResult
	for i := range res.PerConfig {
		if res.PerConfig[i].Config == 0 {
			base = &res.PerConfig[i]
			break
		}
	}
	if base != nil {
		for i := range res.PerConfig {
			cr := &res.PerConfig[i]
			cr.TimeVsBaseline = stats.NormalizedDelta(cr.Boot.Mean, base.Boot.Mean)
			cr.LoadsVsBase = stats.NormalizedDelta(cr.Loads, base.Loads)
			cr.L1VsBase = stats.NormalizedDelta(cr.L1Misses, base.L1Misses)
			cr.LLCVsBase = stats.NormalizedDelta(cr.LLCMisses, base.LLCMisses)
		}
	}
	return res, nil
}

// Baseline returns the Config 0 result, or nil.
func (r *Result) Baseline() *ConfigResult {
	for i := range r.PerConfig {
		if r.PerConfig[i].Config == 0 {
			return &r.PerConfig[i]
		}
	}
	return nil
}

// Significant reports whether cfg's time CI is disjoint from the
// baseline's (a significant difference at the 95% level, §4.2).
func (r *Result) Significant(cfg int) bool {
	base := r.Baseline()
	if base == nil {
		return false
	}
	for i := range r.PerConfig {
		if r.PerConfig[i].Config == cfg {
			return !r.PerConfig[i].Boot.Overlaps(base.Boot)
		}
	}
	return false
}
