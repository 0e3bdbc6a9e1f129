package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/graphgen"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/workloads"
)

// hcsgcConfig is Table 2's config 16: Hotness + ColdPage, ColdConfidence 1,
// LazyRelocate — the paper's full design. Every timed run uses it.
const hcsgcConfig = 16

// workload is one benchmark workload: an experiment of the workloads
// package run through workloads.Get(id).Run, the entry point hcsgc-bench
// uses.
type workload struct {
	name string
	id   string
	kv   bool // serves requests; reports serving latency
	// mutators is RunConfig.Mutators (0 = the experiment's default).
	mutators int
	// setup times the calls that build what the run consumes: the
	// runtime at the workload's heap and cache configuration and, where
	// the workload has them, its generated inputs.
	setup func(tr *tracer, cfg workloads.RunConfig) error
}

var benchWorkloads = []workload{
	{name: "fig4", id: "fig4", mutators: 1, setup: setupSynthetic},
	{name: "graph-mc", id: "fig9", setup: setupGraphMC},
	{name: "kv", id: "kv", kv: true, mutators: min(2, runtime.NumCPU()), setup: setupKV},
}

func findWorkload(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runConfig is the RunConfig of a timed run: config 16, the workload's
// default scale unless scale > 0.
func (w workload) runConfig(seed int64, scale float64) workloads.RunConfig {
	return workloads.RunConfig{
		Knobs:    bench.KnobsFor(hcsgcConfig),
		Seed:     seed,
		Scale:    scale,
		Mutators: w.mutators,
	}
}

// referenceConfig is the correctness reference: the same workload and
// seed under config 0 with the cache model off. Checksums do not depend
// on the configuration or the cache model, so every timed run must match
// it.
func (w workload) referenceConfig(seed int64, scale float64) workloads.RunConfig {
	cfg := w.runConfig(seed, scale)
	cfg.Knobs = bench.KnobsFor(0)
	cfg.DisableMem = true
	return cfg
}

// run makes one workloads.Get(id).Run call under a span and returns the
// result with its host wall time.
func (w workload) run(tr *tracer, cfg workloads.RunConfig) (workloads.Result, time.Duration, error) {
	wl, err := workloads.Get(w.id)
	if err != nil {
		return workloads.Result{}, 0, err
	}
	end := tr.begin("workloads.Run")
	start := time.Now()
	res, err := wl.Run(cfg)
	elapsed := time.Since(start)
	end()
	return res, elapsed, err
}

// gate is the correctness reference a run must reproduce.
type gate struct {
	check   uint64
	hitRate float64 // kv only
}

func (w workload) reference(tr *tracer, seed int64, scale float64) (gate, error) {
	res, _, err := w.run(tr, w.referenceConfig(seed, scale))
	if err != nil {
		return gate{}, fmt.Errorf("reference run: %w", err)
	}
	return gate{check: res.Check, hitRate: res.Scores["kv-hit-rate"]}, nil
}

// pass reports whether a run reproduced the reference.
func (g gate) pass(w workload, res workloads.Result) bool {
	if res.Check != g.check {
		return false
	}
	return !w.kv || res.Scores["kv-hit-rate"] == g.hitRate
}

// newRuntime times hcsgc.NewRuntime as the workload builds it, then
// closes the runtime.
func newRuntime(tr *tracer, cfg workloads.RunConfig, heapBytes uint64) error {
	end := tr.begin("hcsgc.NewRuntime")
	defer end()
	rt, err := hcsgc.NewRuntime(hcsgc.Options{
		HeapMaxBytes:    heapBytes,
		Knobs:           cfg.Knobs,
		DisableMemModel: cfg.DisableMem,
		StartDriver:     true,
	})
	if err != nil {
		return fmt.Errorf("hcsgc.NewRuntime: %w", err)
	}
	rt.Close()
	return nil
}

// The sizes below mirror the workloads package's defaults for the three
// experiments (synthetic.go, jgrapht.go, kvserver.go).

func setupSynthetic(tr *tracer, cfg workloads.RunConfig) error {
	return newRuntime(tr, cfg, 64<<20)
}

func setupGraphMC(tr *tracer, cfg workloads.RunConfig) error {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 0.25
	}
	params := graphgen.UKMC.ScaledDensity(scale)
	params.Seed += cfg.Seed
	end := tr.begin("graphgen.Generate")
	g, err := graphgen.Generate(params)
	end()
	if err != nil {
		return fmt.Errorf("graphgen.Generate: %w", err)
	}
	heapBytes := (uint64(g.Nodes())*80 + uint64(g.EdgeCount)*48) * 3
	return newRuntime(tr, cfg, max(heapBytes, 64<<20))
}

func setupKV(tr *tracer, cfg workloads.RunConfig) error {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	end := tr.begin("loadgen.Generate")
	loadgen.Generate(loadgen.Config{
		Seed:          cfg.Seed,
		Keys:          max(int(10_000*scale), 64*cfg.Mutators),
		Requests:      max(int(300_000*scale), 1_000),
		MeanGapCycles: 600,
	})
	end()
	return newRuntime(tr, cfg, 18<<20)
}

// setupTimes repeats the workload's set-up, each time after a host GC,
// at least setupMinReps times and for at least setupMinTime (at most
// setupMaxReps times), and returns each repetition's host seconds.
func (w workload) setupTimes(tr *tracer, cfg workloads.RunConfig) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < setupMaxReps &&
		(len(out) < setupMinReps || time.Since(start) < setupMinTime) {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(tr, cfg); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
