// Benchmarks regenerating the paper's tables and figures in miniature:
// one testing.B benchmark per table/figure. Each benchmark runs the
// corresponding workload under the ZGC baseline (Config 0) and a
// representative HCSGC configuration, reporting simulated execution time
// and LLC misses as custom metrics. The full sweeps over all 19
// configurations with bootstrap statistics live in cmd/hcsgc-bench.
package hcsgc_test

import (
	"fmt"
	"testing"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/graphgen"
	"hcsgc/internal/workloads"
)

// benchScale keeps each single run fast; hcsgc-bench uses larger scales.
const benchScale = 0.02

// benchConfigs is the config subset exercised per figure: the baseline and
// the paper's strongest configuration family.
var benchConfigs = []int{0, 4, 16}

func benchmarkFigure(b *testing.B, id string) {
	w, err := workloads.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range benchConfigs {
		knobs := bench.KnobsFor(cfg)
		b.Run(fmt.Sprintf("config%d", cfg), func(b *testing.B) {
			var simSecs, llc float64
			for i := 0; i < b.N; i++ {
				res, err := w.Run(workloads.RunConfig{
					Knobs: knobs,
					Seed:  int64(i + 1),
					Scale: benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
				simSecs += res.ExecSeconds
				llc += float64(res.LLCMisses)
			}
			b.ReportMetric(simSecs/float64(b.N), "sim-s/run")
			b.ReportMetric(llc/float64(b.N), "LLCmiss/run")
		})
	}
}

func BenchmarkFig4Synthetic(b *testing.B)   { benchmarkFigure(b, "fig4") }
func BenchmarkFig5Phases(b *testing.B)      { benchmarkFigure(b, "fig5") }
func BenchmarkFig6Overload(b *testing.B)    { benchmarkFigure(b, "fig6") }
func BenchmarkFig7CCUK(b *testing.B)        { benchmarkFigure(b, "fig7") }
func BenchmarkFig8CCEnwiki(b *testing.B)    { benchmarkFigure(b, "fig8") }
func BenchmarkFig9MCUK(b *testing.B)        { benchmarkFigure(b, "fig9") }
func BenchmarkFig10MCEnwiki(b *testing.B)   { benchmarkFigure(b, "fig10") }
func BenchmarkFig11Tradebeans(b *testing.B) { benchmarkFigure(b, "fig11") }
func BenchmarkFig12H2(b *testing.B)         { benchmarkFigure(b, "fig12") }
func BenchmarkFig13SPECjbb(b *testing.B)    { benchmarkFigure(b, "fig13") }

// BenchmarkTelemetryOverhead measures the cost of the telemetry
// instrumentation on a representative workload run: "off" is a nil sink
// (every instrumentation site reduces to one predictable nil check, the
// production default), "on" attaches a live recorder and registry. The
// acceptance bar is "off" within 5% of the pre-telemetry baseline; "on"
// quantifies the price of enabling observability.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w, err := workloads.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	knobs := bench.KnobsFor(4)
	for _, mode := range []struct {
		name string
		sink func() *hcsgc.TelemetrySink
	}{
		{"off", func() *hcsgc.TelemetrySink { return nil }},
		{"on", hcsgc.NewTelemetrySink},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(workloads.RunConfig{
					Knobs:     knobs,
					Seed:      int64(i + 1),
					Scale:     benchScale,
					Telemetry: mode.sink(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalityOverhead measures the cost of the locality profiler on
// a representative workload run: "off" is a nil profiler — every access
// site reduces to one predictable nil check, the same discipline (and
// therefore the same baseline) as BenchmarkTelemetryOverhead's "off" mode.
// "shift4" attaches a live profiler sampling every access (the burst is
// clamped to the period, so shifts <= 8 are exhaustive); "shift12" samples
// one 256-access burst per 4096 accesses (1/16), the low-overhead setting.
func BenchmarkLocalityOverhead(b *testing.B) {
	w, err := workloads.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	knobs := bench.KnobsFor(4)
	for _, mode := range []struct {
		name string
		prof func() *hcsgc.LocalityProfiler
	}{
		{"off", func() *hcsgc.LocalityProfiler { return nil }},
		{"shift4", func() *hcsgc.LocalityProfiler {
			return hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{SamplePeriodShift: 4})
		}},
		{"shift12", func() *hcsgc.LocalityProfiler {
			return hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{SamplePeriodShift: 12})
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(workloads.RunConfig{
					Knobs:    knobs,
					Seed:     int64(i + 1),
					Scale:    benchScale,
					Locality: mode.prof(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultInjectOverhead measures the cost of the fault-injection
// plane and the STW verifier on a representative workload run: "off" is a
// nil injector — every injection point reduces to one predictable nil
// check, the production default and the acceptance bar (within noise of
// the pre-faultinject baseline). "armed-zero" threads a live injector
// whose schedule never fires, pricing the per-point decision path;
// "verify" additionally attaches the STW heap verifier, pricing a full
// heap walk per pause.
func BenchmarkFaultInjectOverhead(b *testing.B) {
	w, err := workloads.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	knobs := bench.KnobsFor(4)
	for _, mode := range []struct {
		name string
		inj  func() *hcsgc.FaultInjector
		ver  func() *hcsgc.HeapVerifier
	}{
		{"off", func() *hcsgc.FaultInjector { return nil }, func() *hcsgc.HeapVerifier { return nil }},
		{"armed-zero", func() *hcsgc.FaultInjector {
			return hcsgc.NewFaultInjector(hcsgc.FaultConfig{})
		}, func() *hcsgc.HeapVerifier { return nil }},
		{"verify", func() *hcsgc.FaultInjector {
			return hcsgc.NewFaultInjector(hcsgc.FaultConfig{})
		}, hcsgc.NewHeapVerifier},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(workloads.RunConfig{
					Knobs:         knobs,
					Seed:          int64(i + 1),
					Scale:         benchScale,
					FaultInjector: mode.inj(),
					Verifier:      mode.ver(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLatencyOverhead measures the cost of the latency attribution
// plane on a representative workload run: "off" disables the tracker —
// every recording site reduces to one predictable nil check — while
// "always-on" is the production default, with HDR pause/phase recording,
// MMU bookkeeping, barrier-hit counters and the flight-recorder ring all
// live. The acceptance bar is "always-on" within noise of "off": exact
// barrier hits are single atomic adds, latencies are 1-in-64 sampled, and
// everything else runs at cycle boundaries.
func BenchmarkLatencyOverhead(b *testing.B) {
	w, err := workloads.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	knobs := bench.KnobsFor(4)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"off", true},
		{"always-on", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(workloads.RunConfig{
					Knobs:          knobs,
					Seed:           int64(i + 1),
					Scale:          benchScale,
					DisableLatency: mode.disable,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSignalsOverhead measures the cost of the unified signal plane
// on a representative workload run: "off" disables the plane — the cycle
// hook reduces to one predictable nil check and mutators skip the
// allocation-byte ledger — while "always-on" is the production default,
// snapshotting every cycle's CycleSignals record (flight record, heap and
// locality signals, EWMA/trend derivations, anomaly flags) into the
// bounded ring. The acceptance bar is "always-on" within noise of "off":
// the per-allocation cost is one atomic add, and everything else runs
// once per GC cycle.
func BenchmarkSignalsOverhead(b *testing.B) {
	w, err := workloads.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	knobs := bench.KnobsFor(4)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"off", true},
		{"always-on", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(workloads.RunConfig{
					Knobs:          knobs,
					Seed:           int64(i + 1),
					Scale:          benchScale,
					DisableSignals: mode.disable,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PageAlloc measures the page allocator underlying the
// Table 1 size classes.
func BenchmarkTable1PageAlloc(b *testing.B) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{HeapMaxBytes: 1 << 30, DisableMemModel: true})
	defer rt.Close()
	m := rt.NewMutator(1)
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AllocWordArray(30) // small-class allocation through the TLAB
	}
}

// BenchmarkTable2ConfigSweep measures one tiny workload run per Table 2
// configuration, confirming all 19 are runnable.
func BenchmarkTable2ConfigSweep(b *testing.B) {
	w, _ := workloads.Get("fig4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := bench.AllConfigs()[i%bench.NumConfigs]
		if _, err := w.Run(workloads.RunConfig{Knobs: bench.KnobsFor(cfg), Seed: 1, Scale: 0.005}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3GraphGen measures generation of the Table 3 graph inputs
// at a reduced scale.
func BenchmarkTable3GraphGen(b *testing.B) {
	for _, p := range graphgen.Presets() {
		b.Run(p.Name, func(b *testing.B) {
			params := p.Scaled(0.1)
			for i := 0; i < b.N; i++ {
				g := graphgen.MustGenerate(params)
				if g.Nodes() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}
