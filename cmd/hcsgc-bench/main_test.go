package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/bench"
)

func TestParseConfigs(t *testing.T) {
	got, err := parseConfigs("0, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseConfigs = %v", got)
	}
	if _, err := parseConfigs("0,x"); err == nil {
		t.Fatal("bad config id must error")
	}
	if _, err := parseConfigs(""); err == nil {
		t.Fatal("empty string must error (empty field)")
	}
}

func TestRunOneTables(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		if err := runOne(id, 0, 0, 0, "", nil, nil, nil); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := runOne("nonesuch", 0, 0, 0, "", nil, nil, nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunOneTinyFigure(t *testing.T) {
	if err := runOne("fig13", 1, 0.01, 1, "0,5", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunOneWithTelemetry drives a tiny experiment with the telemetry
// sink attached (the -telemetry-addr path) and checks that the metrics
// endpoint would serve the core schema afterwards.
func TestRunOneWithTelemetry(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	if err := runOne("fig4", 1, 0.005, 1, "0,4", nil, nil, sink); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"hcsgc_gc_cycles_total",
		`hcsgc_reloc_objects_total{who="gc"}`,
		`hcsgc_reloc_objects_total{who="mutator"}`,
		"hcsgc_page_hotmap_density",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunLatencyTiny drives the latency report end to end on a tiny
// workload, with the telemetry sink attached so the HDR summaries and MMU
// gauges land in the exposition.
func TestRunLatencyTiny(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	// Scale 0.03 is the smallest fig4 that actually triggers GC cycles
	// (the latency validator requires recorded pauses).
	opts := bench.ReportOptions{Exp: "fig4", Runs: 1, Scale: 0.03, Seed: 1, Configs: []int{3, 4}, Telemetry: sink}
	if err := runReport("latency", opts, "", "", "", nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE hcsgc_pause_cycles summary",
		`hcsgc_pause_cycles{phase="stw1",quantile="0.99"}`,
		`hcsgc_mmu_ratio{window_cycles="100000"}`,
		`hcsgc_barrier_path_total{path="relocate"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunLatencyBadConfigs rejects a malformed -configs pair.
func TestRunLatencyBadConfigs(t *testing.T) {
	opts := bench.ReportOptions{Exp: "fig4", Runs: 1, Scale: 0.005, Seed: 1, Configs: []int{3}}
	if err := runReport("latency", opts, "", "", "", nil); err == nil {
		t.Fatal("single config id must error")
	}
}

// TestWriteList pins the -list output shape: every experiment id and
// every registered report leads its line with a one-line description
// after it, and the ablation sweeps are enumerated.
func TestWriteList(t *testing.T) {
	var b strings.Builder
	writeList(&b)
	out := b.String()
	ids := []string{"fig4", "fig13", "kv", "table2"}
	for _, r := range bench.Reports() {
		ids = append(ids, r.Name)
	}
	for _, id := range ids {
		found := false
		for _, line := range strings.Split(out, "\n") {
			fields := strings.Fields(line)
			if len(fields) > 1 && fields[0] == id {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("-list output missing described entry for %q:\n%s", id, out)
		}
	}
	for _, want := range []string{"-report NAME", "ablate:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestRunKVTiny drives the kv report end to end at tiny scale with the
// telemetry sink attached, writing the JSON and benchmark artifacts, and
// checks the hcsgc_kv_* families land in the exposition. At this scale
// the GC never disrupts serving, so nothing violates the 1M-cycle SLO and
// the validator rejects the run — after the artifacts are written, and
// with exactly the error the written report validates to.
func TestRunKVTiny(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	dir := t.TempDir()
	jsonPath := dir + "/kv-report.json"
	benchOut := dir + "/BENCH_kv.json"
	opts := bench.ReportOptions{Runs: 1, Scale: 0.01, Seed: 1, Configs: []int{3, 4}, Telemetry: sink}
	runErr := runReport("kv", opts, jsonPath, benchOut, "", nil)
	// The normalized artifact round-trips and compares clean against
	// itself (the CI baseline-guard path).
	art, err := bench.ReadArtifactFile(benchOut)
	if err != nil {
		t.Fatalf("bench artifact: %v", err)
	}
	if art.Experiment != "kv" || len(art.Metrics) == 0 {
		t.Fatalf("bench artifact malformed: %+v", art)
	}
	if warns := bench.CompareArtifacts(art, art, 0.10); len(warns) != 0 {
		t.Fatalf("self-comparison produced warnings: %v", warns)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("kv json artifact: %v", err)
	}
	var ab bench.KVAB
	if err := json.Unmarshal(data, &ab); err != nil {
		t.Fatalf("kv json artifact decode: %v", err)
	}
	for _, side := range []bench.KVSide{ab.Base, ab.Test} {
		if err := side.Report.Validate(); err != nil {
			t.Fatalf("kv json artifact serving report invalid: %v", err)
		}
		if side.Tail.Requests == 0 {
			t.Fatal("kv json artifact carries no tail attribution")
		}
	}
	if valErr := ab.Validate(); runErr == nil || valErr == nil || runErr.Error() != valErr.Error() {
		t.Fatalf("runReport error %v, want the artifact's validation error %v", runErr, valErr)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`hcsgc_kv_requests_total{op="get"}`,
		`hcsgc_kv_lookups_total{result="hit"}`,
		`hcsgc_kv_request_cycles{phase="steady",quantile="0.999"}`,
		"hcsgc_kv_sessions_retired_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunKVBadConfigs rejects config lists of the wrong length.
func TestRunKVBadConfigs(t *testing.T) {
	opts := bench.ReportOptions{Runs: 1, Scale: 0.01, Seed: 1, Configs: []int{3, 4, 16}}
	if err := runReport("kv", opts, "", "", "", nil); err == nil {
		t.Fatal("three config ids must error")
	}
	opts.Configs = []int{3, 4}
	if err := runReport("overload", opts, "", "", "", nil); err == nil {
		t.Fatal("two config ids must error for the overload report, which takes one")
	}
}

// TestBenchOutNeedsArtifact: -bench-out and -bench-compare on a report
// without a benchmark artifact are an error, raised before anything runs
// and without creating the file, instead of being silently ignored.
func TestBenchOutNeedsArtifact(t *testing.T) {
	dir := t.TempDir()
	var without int
	for _, r := range bench.Reports() {
		if r.Artifact != nil {
			continue
		}
		without++
		path := dir + "/BENCH_" + r.Name + ".json"
		if err := runReport(r.Name, bench.ReportOptions{}, "", path, "", nil); err == nil ||
			!strings.Contains(err.Error(), "-bench-out") {
			t.Errorf("%s -bench-out: err %v, want a -bench-out error", r.Name, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s -bench-out created %s", r.Name, path)
		}
		if err := runReport(r.Name, bench.ReportOptions{}, "", "", "results/BENCH_kv.baseline.json", nil); err == nil {
			t.Errorf("%s -bench-compare: accepted", r.Name)
		}
	}
	if without == 0 {
		t.Fatal("every report has an artifact; the check is vacuous")
	}
	if err := runReport("nonesuch", bench.ReportOptions{}, "", "", "", nil); err == nil {
		t.Fatal("unknown report must error")
	}
}
