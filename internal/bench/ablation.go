package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/simmem"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// Ablations isolate the design choices DESIGN.md calls out, beyond the
// paper's own configuration sweep:
//
//   - prefetch: how much of HCSGC's win depends on the hardware stream
//     prefetcher (the paper claims the layout is "prefetching friendly" —
//     turning the prefetcher off quantifies that claim).
//   - ecthreshold: sensitivity of baseline EC selection to the 75%
//     live-ratio threshold.
//   - tinypages: the paper's future-work cache-line-magnitude page class.
//   - autotune: the paper's future-work feedback loop, compared against
//     fixed ColdConfidence settings.
//   - gcworkers: relocation bandwidth vs mutator-won races.
//
// Each ablation runs the synthetic single-phase workload (fig4) under a
// fixed HCSGC configuration while varying one dimension.

// AblationPoint is one sampled setting.
type AblationPoint struct {
	Label string
	// Mean execution seconds with 95% CI.
	Boot stats.Bootstrap
	// LLCMisses is the mean process LLC miss count.
	LLCMisses float64
}

// AblationResult is one ablation sweep.
type AblationResult struct {
	Name   string
	Desc   string
	Points []AblationPoint
}

// AblationNames lists the available ablations.
func AblationNames() []string {
	return []string{"prefetch", "ecthreshold", "tinypages", "autotune", "gcworkers"}
}

// RunAblation executes one ablation by name.
func RunAblation(name string, runs int, scale float64, seed int64, progress Progress) (AblationResult, error) {
	if runs <= 0 {
		runs = 5
	}
	if scale <= 0 {
		scale = 0.04
	}
	switch name {
	case "prefetch":
		return ablatePrefetch(runs, scale, seed, progress), nil
	case "ecthreshold":
		return ablateECThreshold(runs, scale, seed, progress), nil
	case "tinypages":
		return ablateTinyPages(runs, scale, seed, progress), nil
	case "autotune":
		return ablateAutoTune(runs, scale, seed, progress), nil
	case "gcworkers":
		return ablateGCWorkers(runs, scale, seed, progress), nil
	default:
		return AblationResult{}, fmt.Errorf("bench: unknown ablation %q (have %v)", name, AblationNames())
	}
}

// sample runs the fig4 workload `runs` times for one setting.
func sample(runs int, scale float64, seed int64, cfg workloads.RunConfig) AblationPoint {
	w, _ := workloads.Get("fig4")
	var times []float64
	var llc float64
	for r := 0; r < runs; r++ {
		c := cfg
		c.Seed = seed + int64(r)
		c.Scale = scale
		res, err := w.Run(c)
		if err != nil {
			// Ablation points are advisory: an exhausted run contributes no
			// sample rather than aborting the whole sweep.
			continue
		}
		times = append(times, res.ExecSeconds)
		llc += float64(res.LLCMisses)
	}
	return AblationPoint{
		Boot:      stats.BootstrapMean(times, stats.DefaultResamples, seed),
		LLCMisses: llc / float64(runs),
	}
}

func ablatePrefetch(runs int, scale float64, seed int64, progress Progress) AblationResult {
	res := AblationResult{
		Name: "prefetch",
		Desc: "HCSGC config 4 under varying stream-prefetcher depth (0 = off)",
	}
	for _, depth := range []int{0, 1, 2, 4, 8, 16} {
		mem := simmem.DefaultConfig()
		mem.PrefetchDepth = depth
		// workloads construct their own runtime; pass the hierarchy via
		// RunConfig? It has no such field — ablate through a dedicated
		// field added below.
		p := sample(runs, scale, seed, workloads.RunConfig{
			Knobs:     KnobsFor(4),
			MemConfig: &mem,
		})
		p.Label = fmt.Sprintf("depth=%d", depth)
		res.Points = append(res.Points, p)
		progress.logf("prefetch %s: %.4fs", p.Label, p.Boot.Mean)
	}
	return res
}

func ablateECThreshold(runs int, scale float64, seed int64, progress Progress) AblationResult {
	res := AblationResult{
		Name: "ecthreshold",
		Desc: "baseline ZGC under varying evacuation live-ratio thresholds (paper: 0.75)",
	}
	for _, th := range []float64{0.25, 0.5, 0.75, 0.9} {
		p := sample(runs, scale, seed, workloads.RunConfig{
			Knobs:         hcsgc.Knobs{},
			EvacThreshold: th,
		})
		p.Label = fmt.Sprintf("threshold=%.2f", th)
		res.Points = append(res.Points, p)
		progress.logf("ecthreshold %s: %.4fs", p.Label, p.Boot.Mean)
	}
	return res
}

func ablateTinyPages(runs int, scale float64, seed int64, progress Progress) AblationResult {
	res := AblationResult{
		Name: "tinypages",
		Desc: "config 16 with and without the cache-line-magnitude page class (paper §4.8 future work)",
	}
	base := KnobsFor(16)
	for _, tiny := range []bool{false, true} {
		k := base
		k.TinyPages = tiny
		p := sample(runs, scale, seed, workloads.RunConfig{Knobs: k})
		p.Label = fmt.Sprintf("tiny=%v", tiny)
		res.Points = append(res.Points, p)
		progress.logf("tinypages %s: %.4fs", p.Label, p.Boot.Mean)
	}
	return res
}

func ablateAutoTune(runs int, scale float64, seed int64, progress Progress) AblationResult {
	res := AblationResult{
		Name: "autotune",
		Desc: "fixed ColdConfidence settings vs the feedback loop (paper §4.8 future work)",
	}
	for _, pt := range []struct {
		label string
		knobs hcsgc.Knobs
	}{
		{"fixed cc=0.5", KnobsFor(9)},
		{"fixed cc=1.0", KnobsFor(10)},
		{"autotune cc<=1.0", func() hcsgc.Knobs {
			k := KnobsFor(10)
			k.AutoTune = true
			return k
		}()},
	} {
		p := sample(runs, scale, seed, workloads.RunConfig{Knobs: pt.knobs})
		p.Label = pt.label
		res.Points = append(res.Points, p)
		progress.logf("autotune %s: %.4fs", p.Label, p.Boot.Mean)
	}
	return res
}

func ablateGCWorkers(runs int, scale float64, seed int64, progress Progress) AblationResult {
	res := AblationResult{
		Name: "gcworkers",
		Desc: "config 3 (all pages, eager) under varying GC worker counts: more workers win more relocation races from the mutator",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := sample(runs, scale, seed, workloads.RunConfig{
			Knobs:     KnobsFor(3),
			GCWorkers: workers,
		})
		p.Label = fmt.Sprintf("workers=%d", workers)
		res.Points = append(res.Points, p)
		progress.logf("gcworkers %s: %.4fs", p.Label, p.Boot.Mean)
	}
	return res
}

// WriteAblation renders one ablation sweep.
func WriteAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintf(w, "== ABLATION %s ==\n%s\n\n", r.Name, r.Desc)
	fmt.Fprintf(w, "%-20s %25s %14s\n", "setting", "exec mean [95% CI]", "LLC misses")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-20s %8.4f [%7.4f,%7.4f] %14.0f\n",
			p.Label, p.Boot.Mean, p.Boot.CILow, p.Boot.CIHigh, p.LLCMisses)
	}
	fmt.Fprintln(w)
}
