package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
)

// BenchMetric is one normalized benchmark measurement.
type BenchMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Better says which direction is an improvement: "lower" (latencies)
	// or "higher" (hit rates, throughput). Empty means informational —
	// recorded in the artifact for trend inspection but exempt from the
	// baseline comparison (metrics with no stable direction, like the
	// meltdown side of an overload A/B).
	Better string `json:"better,omitempty"`
}

// Artifact is the normalized benchmark output format (`hcsgc-bench
// -bench-out`): a flat metric list with enough run metadata to compare
// across commits. CI uploads it as BENCH_<experiment>.json and warns —
// non-blocking — when a metric regresses >10% against the committed
// baseline.
type Artifact struct {
	Experiment string        `json:"experiment"`
	Mode       string        `json:"mode"`
	Runs       int           `json:"runs"`
	Scale      float64       `json:"scale"`
	Seed       int64         `json:"seed"`
	GoVersion  string        `json:"go_version"`
	Metrics    []BenchMetric `json:"metrics"`
}

// KVArtifact normalizes a KV A/B result: per side, the steady/burst tail
// quantiles, hit rate and mean execution time.
func KVArtifact(ab *KVAB) Artifact {
	a := Artifact{
		Experiment: "kv",
		Mode:       "kv-ab",
		Runs:       ab.Runs,
		Scale:      ab.Scale,
		Seed:       ab.Seed,
		GoVersion:  runtime.Version(),
	}
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		steady := kvPhaseDist(s.side.Report, loadgen.PhaseNames[loadgen.PhaseSteady])
		burst := kvPhaseDist(s.side.Report, loadgen.PhaseNames[loadgen.PhaseBurst])
		a.Metrics = append(a.Metrics,
			BenchMetric{s.name + "/p50-steady", steady.P50, "lower"},
			BenchMetric{s.name + "/p99-steady", steady.P99, "lower"},
			BenchMetric{s.name + "/p999-steady", steady.P999, "lower"},
			BenchMetric{s.name + "/p999-burst", burst.P999, "lower"},
			BenchMetric{s.name + "/hit-rate", hitRate(s.side.Report), "higher"},
			BenchMetric{s.name + "/exec-seconds", s.side.MeanExecSeconds, "lower"},
		)
	}
	return a
}

func kvPhaseDist(r kvstore.Report, phase string) kvstore.Dist {
	for _, p := range r.Phases {
		if p.Phase == phase {
			return p.Dist
		}
	}
	return kvstore.Dist{}
}

// WriteArtifact renders a as indented JSON.
func WriteArtifact(w io.Writer, a Artifact) error { return writeJSON(w, a) }

// ReadArtifactFile loads a committed baseline artifact.
func ReadArtifactFile(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return a, nil
}

// CompareArtifacts checks cur against base metric by metric and returns a
// warning line for every metric that regressed by more than tol (0.10 =
// 10%) in its "worse" direction. Metrics missing from either side are
// reported too — a renamed metric silently dropping out of comparison
// would defeat the guard. The comparison is advisory: tail quantiles on
// this workload have real run-to-run variance, so CI surfaces the
// warnings without failing the build.
func CompareArtifacts(base, cur Artifact, tol float64) []string {
	var warns []string
	baseBy := map[string]BenchMetric{}
	for _, m := range base.Metrics {
		baseBy[m.Name] = m
	}
	seen := map[string]bool{}
	for _, m := range cur.Metrics {
		seen[m.Name] = true
		b, ok := baseBy[m.Name]
		if !ok {
			warns = append(warns, fmt.Sprintf("metric %q has no baseline", m.Name))
			continue
		}
		if b.Value == 0 || math.IsNaN(b.Value) {
			continue
		}
		if m.Better == "" {
			// Informational metric: no direction, no threshold.
			continue
		}
		rel := (m.Value - b.Value) / math.Abs(b.Value)
		if m.Better == "higher" {
			rel = -rel
		}
		if rel > tol {
			warns = append(warns, fmt.Sprintf(
				"metric %q regressed %.1f%% (baseline %.4g, current %.4g, better=%s)",
				m.Name, 100*rel, b.Value, m.Value, m.Better))
		}
	}
	for _, b := range base.Metrics {
		if !seen[b.Name] {
			warns = append(warns, fmt.Sprintf("baseline metric %q missing from current run", b.Name))
		}
	}
	return warns
}
