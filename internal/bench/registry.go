package bench

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/workloads"
)

// ReportOptions are one report run's knobs (`hcsgc-bench -report NAME`).
// Zero fields take the report's defaults.
type ReportOptions struct {
	// Exp is the experiment whose workload the report drives (locality,
	// latency, chaos); the other reports have a fixed workload.
	Exp string
	// Configs are the Table 2 config ids under test: base,test for the
	// two-configuration A/Bs, the single config for overload.
	Configs []int
	// Runs is the run count per side (the seed count for chaos).
	Runs  int
	Scale float64
	// Seed is the base seed; run r uses Seed+r.
	Seed int64
	// Mutators is the scaling sweep's mutator-count ladder.
	Mutators []int
	// Telemetry, when non-nil, attaches the live observability sink to
	// every run.
	Telemetry *hcsgc.TelemetrySink
}

// ReportResult is a finished report. Its JSON encoding is the -out file
// unless it renders its own (ChaosResult writes text).
type ReportResult interface {
	// Validate is the report's acceptance gate; hcsgc-bench exits
	// non-zero exactly when it fails.
	Validate() error
	// WriteText renders the human-readable report.
	WriteText(w io.Writer)
}

// Report is one entry of the report registry.
type Report struct {
	Name string
	// Desc is the one-line description -list prints.
	Desc     string
	Defaults ReportOptions
	run      func(ReportOptions, Progress) (ReportResult, error)
	// Artifact normalizes a result into the committed-baseline benchmark
	// shape (-bench-out, -bench-compare); nil when the report has none.
	Artifact func(ReportResult) Artifact
}

// reports is the registry, in -list order.
var reports = []Report{
	{
		Name:     "locality",
		Desc:     "locality A/B: reuse distance, stream coverage, page entropy, segregation purity",
		Defaults: ReportOptions{Exp: "fig4", Configs: []int{0, 16}, Runs: 3},
		run: func(o ReportOptions, p Progress) (ReportResult, error) {
			return RunLocalityAB(o.Exp, o.Runs, o.Scale, o.Seed, o.Configs[0], o.Configs[1], o.Telemetry, p)
		},
	},
	{
		Name:     "latency",
		Desc:     "latency A/B: pause/phase HDR percentiles, MMU ladder, barrier profile",
		Defaults: ReportOptions{Exp: "fig4", Configs: []int{3, 4}, Runs: 3},
		run: func(o ReportOptions, p Progress) (ReportResult, error) {
			return RunLatencyAB(o.Exp, o.Runs, o.Scale, o.Seed, o.Configs[0], o.Configs[1], o.Telemetry, p)
		},
	},
	{
		Name: "kv",
		Desc: "KV serving A/B: per-phase request latency, SLO curves, and p99 violations by cause and GC cycle",
		// The KV tail is dominated by rare, large stall/pause convoys, so a
		// single run is a coin flip over where they land; ten runs per side
		// aggregate enough GC events for a stable per-phase p999 ordering.
		// Tail violations only occur at the workload's default scale.
		Defaults: ReportOptions{Configs: []int{3, 4}, Runs: 10, Scale: 1, Seed: 1},
		run: func(o ReportOptions, p Progress) (ReportResult, error) {
			// SLO 0 takes the attributor's default, 1,000,000 cycles.
			return RunKVAB(o.Runs, o.Scale, o.Seed, o.Configs[0], o.Configs[1], 0, o.Telemetry, p)
		},
		Artifact: func(r ReportResult) Artifact { return KVArtifact(r.(*KVAB)) },
	},
	{
		Name: "overload",
		Desc: "KV overload A/B at 2x sustainable load: unprotected vs admission control + deadline shedding",
		// Convoy formation is bursty here too; six runs per side.
		Defaults: ReportOptions{Configs: []int{3}, Runs: 6, Scale: 1, Seed: 1},
		run: func(o ReportOptions, p Progress) (ReportResult, error) {
			return RunOverloadAB(o.Runs, o.Scale, o.Seed, o.Configs[0], o.Telemetry, p)
		},
		Artifact: func(r ReportResult) Artifact { return OverloadArtifact(r.(*OverloadAB)) },
	},
	{
		Name:     "scaling",
		Desc:     "many-core scaling sweep: fig4 + KV across a mutator ladder, cores swept with mutators",
		Defaults: ReportOptions{Mutators: ScalingMutators, Seed: 1},
		run: func(o ReportOptions, p Progress) (ReportResult, error) {
			return RunScaleSweep(o.Mutators, o.Scale, o.Seed, o.Telemetry, p)
		},
		Artifact: func(r ReportResult) Artifact { return ScalingArtifact(r.(*ScaleSweep)) },
	},
	{
		Name:     "chaos",
		Desc:     "chaos soak: seeded fault schedules with the STW heap verifier on every run",
		Defaults: ReportOptions{Exp: "fig4", Runs: 20, Seed: 1},
		run: func(o ReportOptions, p Progress) (ReportResult, error) {
			return RunChaos(o.Exp, o.Runs, o.Scale, o.Seed, p)
		},
	},
}

// Reports returns the registry in -list order.
func Reports() []Report { return reports }

// LookupReport finds a registered report by name.
func LookupReport(name string) (Report, bool) {
	for _, r := range reports {
		if r.Name == name {
			return r, true
		}
	}
	return Report{}, false
}

// Run resolves o against the report's defaults and runs it. A field the
// report does not take — an experiment id for a fixed-workload report, a
// config list of the wrong length, a run count or mutator ladder where
// the report has none — is an error rather than silently ignored.
func (r Report) Run(o ReportOptions, progress Progress) (ReportResult, error) {
	d := r.Defaults
	switch {
	case o.Exp != "" && d.Exp == "":
		return nil, fmt.Errorf("%s report takes no experiment id", r.Name)
	case o.Configs != nil && len(o.Configs) != len(d.Configs):
		return nil, fmt.Errorf("%s report takes %d config ids, got %d", r.Name, len(d.Configs), len(o.Configs))
	case o.Runs != 0 && d.Runs == 0:
		return nil, fmt.Errorf("%s report takes no run count", r.Name)
	case o.Mutators != nil && d.Mutators == nil:
		return nil, fmt.Errorf("%s report takes no mutator ladder", r.Name)
	}
	o.Exp, o.Runs = cmp.Or(o.Exp, d.Exp), cmp.Or(o.Runs, d.Runs)
	o.Scale, o.Seed = cmp.Or(o.Scale, d.Scale), cmp.Or(o.Seed, d.Seed)
	if o.Configs == nil {
		o.Configs = d.Configs
	}
	if o.Mutators == nil {
		o.Mutators = d.Mutators
	}
	return r.run(o, progress)
}

// WriteOut renders res as the -out file: indented JSON, or the result's
// own format when it has one.
func WriteOut(w io.Writer, res ReportResult) error {
	if o, ok := res.(interface{ WriteOut(io.Writer) error }); ok {
		return o.WriteOut(w)
	}
	return writeJSON(w, res)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ABSide identifies one side of a two-configuration comparison.
type ABSide struct {
	Config int    `json:"config"`
	Knobs  string `json:"knobs"`
	Runs   int    `json:"runs"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
}

// abRun drives one workload under two configurations, runs times each
// with per-run seeds, and holds both sides to the same checksum per run
// index: a GC configuration must never change program results.
type abRun struct {
	label    string
	w        workloads.Workload
	runs     int
	scale    float64
	seed     int64
	sink     *hcsgc.TelemetrySink
	progress Progress
	checks   checkGuard
}

func newABRun(label, expID string, runs int, scale float64, seed int64, sink *hcsgc.TelemetrySink, progress Progress) (*abRun, error) {
	w, err := workloads.Get(expID)
	if err != nil {
		return nil, err
	}
	return &abRun{label: label, w: w, runs: runs, scale: scale, seed: seed,
		sink: sink, progress: progress, checks: checkGuard{}}, nil
}

// side runs cfgID's runs. arm attaches the caller's per-run instruments
// to each run's config. It returns the side's identity and the GC cycles
// summed across its runs.
func (a *abRun) side(cfgID int, arm func(*workloads.RunConfig)) (ABSide, int, error) {
	knobs := KnobsFor(cfgID)
	side := ABSide{Config: cfgID, Knobs: knobs.String(), Runs: a.runs}
	var exec float64
	var gcCycles int
	for run := 0; run < a.runs; run++ {
		cfg := workloads.RunConfig{
			Knobs:     knobs,
			Seed:      a.seed + int64(run),
			Scale:     a.scale,
			Telemetry: a.sink,
		}
		arm(&cfg)
		out, err := a.w.Run(cfg)
		if err != nil {
			return side, 0, fmt.Errorf("%s: config %d run %d: %w", a.label, cfgID, run, err)
		}
		if want, ok := a.checks.see(run, out.Check); !ok {
			return side, 0, fmt.Errorf(
				"%s: config %d run %d checksum %d != expected %d — GC configuration changed program results",
				a.label, cfgID, run, out.Check, want)
		}
		exec += out.ExecSeconds
		gcCycles += out.GCCycleCount
		a.progress.logf("%s config %-2d run %d/%d", a.label, cfgID, run+1, a.runs)
	}
	side.MeanExecSeconds = exec / float64(a.runs)
	return side, gcCycles, nil
}
