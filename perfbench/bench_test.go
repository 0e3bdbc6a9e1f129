package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON is the subset of BENCHMARK.json the tests compare with
// the metric tables.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
	}
}

func TestPerLayerTargetsExist(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	wl := map[string]bool{}
	for _, w := range benchWorkloads {
		wl[w.name] = true
	}
	for _, m := range perLayer {
		if len(m.moves) == 0 || len(m.on) == 0 {
			t.Errorf("%s names no end-to-end metric or workload", m.name)
		}
		for _, e := range m.moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.name, e)
			}
		}
		for _, w := range m.on {
			if !wl[w] {
				t.Errorf("%s names unknown workload %q", m.name, w)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(benchWorkloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark has %s %s %s",
					kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func checkSelfTimes(t *testing.T, spans []span) {
	t.Helper()
	var sum int64
	for _, s := range spans {
		if s.Self < 0 {
			t.Errorf("span %s has negative self time %d", s.Name, s.Self)
		}
		sum += s.Self
	}
	root := spans[0]
	if root.Parent != -1 {
		t.Fatalf("first span %s is not the root", root.Name)
	}
	if d := root.End - root.Start; sum != d {
		t.Errorf("self times sum to %d ns, root span lasts %d ns", sum, d)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	tr := newTracer()
	endRoot := tr.begin("root")
	for i := 0; i < 3; i++ {
		end := tr.begin("a.outer")
		time.Sleep(time.Millisecond)
		inner := tr.begin("b.inner")
		time.Sleep(2 * time.Millisecond)
		inner()
		end()
	}
	endRoot()
	selfTimes(tr.spans)
	checkSelfTimes(t, tr.spans)
	layers := layerSelf(tr.spans)
	if layers["b"] < 6*int64(time.Millisecond) || layers["a"] < 3*int64(time.Millisecond) {
		t.Errorf("layer self times %v too small for the sleeps", layers)
	}

	// Overlapping children count once.
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "x", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "y", Start: 40, End: 60},
	}
	selfTimes(spans)
	if spans[0].Self != 50 {
		t.Errorf("root self = %d, want 50", spans[0].Self)
	}
}

func TestModuleOf(t *testing.T) {
	for sym, want := range map[string]string{
		"hcsgc/internal/simmem.(*Cache).touch":               "simmem",
		"hcsgc/internal/telemetry/latency.(*Tracker).Report": "latency",
		"hcsgc.(*Runtime).GC":                                "hcsgc",
		"main.probeCore":                                     "perfbench",
		"runtime.mallocgc":                                   "go-runtime",
		"sync/atomic.(*Int64).Add":                           "go-runtime",
		"math/rand.(*Rand).Intn":                             "go-runtime",
	} {
		if got := moduleOf(sym); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += uint64(i) * x
		}
	}
	return x
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range by {
		total += ns
	}
	if total == 0 || by["perfbench"]*2 < total {
		t.Errorf("profile folded to %v; want most CPU time in perfbench", by)
	}
}

// TestSmoke runs every workload at a tiny scale, timed and traced; each
// run must pass the correctness gate and report every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range benchWorkloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			o := options{workload: w.name, seed: 3, trace: trace == "1", scale: 0.01, out: out}
			code := execute(o, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			var rep report
			if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %s: report %+v", w.name, trace, rep)
			}
			for _, m := range want {
				if _, ok := rep.Metrics[m.name]; !ok {
					t.Errorf("%s trace %s: metric %s missing", w.name, trace, m.name)
				}
			}
			if trace == "0" {
				for _, m := range endToEnd {
					if rep.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, m.name, rep.Metrics[m.name].Value)
					}
				}
				continue
			}
			data, err := os.ReadFile(filepath.Join(out, w.name+"-seed3.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			checkSelfTimes(t, tf.Spans)
			cycles := rep.Metrics["core.gc_cycles"].Value
			if (cycles > 0 && tf.VerifierPasses == 0) || tf.VerifierViolations != 0 {
				t.Errorf("%s: verifier passes %d, violations %d", w.name, tf.VerifierPasses, tf.VerifierViolations)
			}
		}
	}
}

// TestGateRejectsWrongChecksum feeds the gate a result from another seed.
func TestGateRejectsWrongChecksum(t *testing.T) {
	w, err := findWorkload("fig4")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.reference(nil, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.run(nil, w.runConfig(2, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if ref.pass(w, res) {
		t.Error("gate passed a run of another seed")
	}
}
