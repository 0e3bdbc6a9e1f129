package bench

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// schemaKeys returns the JSON key paths a value of v's type can encode
// to, derived from the type (json tags, promoted embedded fields, "[]"
// for slice elements, "{}" for map values) rather than from a value, so
// omitempty fields and value-dependent map keys cannot make it flap.
func schemaKeys(v any) []string {
	out := map[string]bool{}
	walkSchema(reflect.TypeOf(v), "", out, map[reflect.Type]bool{})
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func walkSchema(t reflect.Type, prefix string, out map[string]bool, seen map[reflect.Type]bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Struct:
		if seen[t] {
			return
		}
		seen[t] = true
		defer delete(seen, t)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if tag == "-" {
				continue
			}
			name, _, _ := strings.Cut(tag, ",")
			if f.Anonymous && name == "" {
				walkSchema(f.Type, prefix, out, seen)
				continue
			}
			if !f.IsExported() {
				continue
			}
			if name == "" {
				name = f.Name
			}
			out[prefix+"."+name] = true
			walkSchema(f.Type, prefix+"."+name, out, seen)
		}
	case reflect.Slice, reflect.Array:
		walkSchema(t.Elem(), prefix+"[]", out, seen)
	case reflect.Map:
		walkSchema(t.Elem(), prefix+"{}", out, seen)
	}
}

// goldenKeys reads a schema recorded from the reports as they stood
// before the registry replaced the per-mode harnesses.
func goldenKeys(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/schema/" + name + ".keys")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(data))
}

func diffKeys(want, got []string) (missing, extra []string) {
	in := func(keys []string) map[string]bool {
		m := map[string]bool{}
		for _, k := range keys {
			m[k] = true
		}
		return m
	}
	w, g := in(want), in(got)
	for _, k := range want {
		if !g[k] {
			missing = append(missing, k)
		}
	}
	for _, k := range got {
		if !w[k] {
			extra = append(extra, k)
		}
	}
	return missing, extra
}

// TestReportSchemas pins every JSON report's key set to the golden schema.
// The one intended change is the kv report absorbing the tail report: its
// schema is exactly the old tail schema (the old kv keys plus each side's
// tail attribution and the shared SLO threshold).
func TestReportSchemas(t *testing.T) {
	var names []string
	for _, r := range Reports() {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, " "); got != "locality latency kv overload scaling chaos" {
		t.Fatalf("registry = %s", got)
	}
	for _, tc := range []struct {
		golden string
		v      any
	}{
		{"locality", &LocalityAB{}},
		{"latency", &LatencyAB{}},
		{"tail", &KVAB{}},
		{"overload", &OverloadAB{}},
		{"scaling", &ScaleSweep{}},
		{"artifact", &Artifact{}},
	} {
		missing, extra := diffKeys(goldenKeys(t, tc.golden), schemaKeys(tc.v))
		if len(missing)+len(extra) > 0 {
			t.Errorf("%T schema drifted from %s.keys: missing %v, extra %v", tc.v, tc.golden, missing, extra)
		}
	}
	if missing, _ := diffKeys(goldenKeys(t, "kv"), schemaKeys(&KVAB{})); len(missing) > 0 {
		t.Errorf("kv report lost keys: %v", missing)
	}
}

// TestArtifactMetricNames: the normalized artifacts carry exactly the
// metric names of the committed baselines, so -bench-compare never warns
// about a metric with no baseline or a baseline metric gone missing.
func TestArtifactMetricNames(t *testing.T) {
	sweep := &ScaleSweep{Mutators: []int{1, 2, 4}}
	for _, w := range scalingWorkloads {
		ser := ScaleSeries{Workload: w}
		for _, n := range sweep.Mutators {
			ser.Points = append(ser.Points, ScalePoint{Mutators: n})
		}
		sweep.Series = append(sweep.Series, ser)
	}
	for _, tc := range []struct {
		name string
		art  Artifact
	}{
		{"kv", KVArtifact(&KVAB{})},
		{"overload", OverloadArtifact(&OverloadAB{})},
		{"scaling", ScalingArtifact(sweep)},
	} {
		base, err := ReadArtifactFile("../../results/BENCH_" + tc.name + ".baseline.json")
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		for _, m := range base.Metrics {
			want = append(want, m.Name)
		}
		for _, m := range tc.art.Metrics {
			got = append(got, m.Name)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s artifact metrics %v, baseline has %v", tc.name, got, want)
		}
		if r, ok := LookupReport(tc.name); ok && r.Artifact == nil {
			t.Errorf("%s report lost its artifact", tc.name)
		}
	}
}

// TestReportRejectsForeignOptions: a knob the report does not take is an
// error before anything runs, never silently ignored.
func TestReportRejectsForeignOptions(t *testing.T) {
	for _, tc := range []struct {
		report string
		opts   ReportOptions
	}{
		{"kv", ReportOptions{Exp: "fig4"}},
		{"kv", ReportOptions{Configs: []int{3}}},
		{"overload", ReportOptions{Configs: []int{3, 4}}},
		{"scaling", ReportOptions{Runs: 2}},
		{"scaling", ReportOptions{Configs: []int{3}}},
		{"locality", ReportOptions{Mutators: []int{1, 2}}},
		{"chaos", ReportOptions{Configs: []int{0}}},
	} {
		r, ok := LookupReport(tc.report)
		if !ok {
			t.Fatalf("report %s not registered", tc.report)
		}
		if _, err := r.Run(tc.opts, nil); err == nil {
			t.Errorf("%s accepted %+v", tc.report, tc.opts)
		}
	}
}

// TestReportRunsThroughRegistry drives the cheapest report through the
// registry with defaults filled in, and checks the validator's verdict.
func TestReportRunsThroughRegistry(t *testing.T) {
	r, _ := LookupReport("latency")
	res, err := r.Run(ReportOptions{Runs: 1, Scale: 0.03, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ab, ok := res.(*LatencyAB)
	if !ok {
		t.Fatalf("latency report returned %T", res)
	}
	if ab.Experiment != "fig4" || ab.Base.Config != 3 || ab.Test.Config != 4 {
		t.Fatalf("defaults not applied: exp %s, configs %d/%d", ab.Experiment, ab.Base.Config, ab.Test.Config)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}
