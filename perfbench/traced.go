package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/workloads"
)

// traceFile is what the traced run writes out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	// LayerSelfNs sums span self times by layer (the span name's prefix).
	LayerSelfNs map[string]int64 `json:"layer_self_ns"`
	// HostSelfNs is the traced run's CPU profile folded by module.
	HostSelfNs         map[string]int64 `json:"host_self_ns"`
	TracingOverheadS   float64          `json:"tracing_overhead_s"`
	VerifierPasses     uint64           `json:"verifier_passes"`
	VerifierViolations uint64           `json:"verifier_violations"`
	Metrics            map[string]value `json:"metrics"`
}

// traced makes, in order: the set-up, the reference run, an untraced run,
// a run with the latency, signal and contention planes all off, the
// traced run, and the layer probes. The traced run carries the handles
// the per-layer counters are read from, the heap verifier and a CPU
// profile.
func traced(w workload, o options, stderr io.Writer) (report, error) {
	tr := newTracer()
	endRoot := tr.begin("perfbench.traced")
	cfg := w.runConfig(o.seed, o.scale)

	setupID := len(tr.spans)
	end := tr.begin("perfbench.setup")
	_, err := w.setupTimes(tr, cfg)
	end()
	if err != nil {
		return report{}, err
	}

	end = tr.begin("perfbench.reference")
	ref, err := w.reference(tr, o.seed, o.scale)
	end()
	if err != nil {
		return report{}, err
	}

	var t tally
	gated := func(r runResult) bool {
		ok := r.err == nil && ref.pass(w, r.res)
		t.add(w, r, ok)
		return ok
	}

	end = tr.begin("perfbench.untraced")
	plain := w.timedRun(tr, cfg)
	end()
	okPlain := gated(plain)

	off := cfg
	off.DisableLatency, off.DisableSignals, off.DisableContention = true, true, true
	end = tr.begin("perfbench.planes_off")
	bare := w.timedRun(tr, off)
	end()
	okBare := gated(bare)

	lat := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{FlightRecords: 4096})
	sig := hcsgc.NewSignalPlane(hcsgc.SignalsConfig{History: 4096})
	sink := hcsgc.NewTelemetrySink()
	ver := hcsgc.NewHeapVerifier()
	kvm := kvstore.NewMetrics()
	tcfg := cfg
	tcfg.Latency, tcfg.Signals, tcfg.Telemetry, tcfg.Verifier, tcfg.KV = lat, sig, sink, ver, kvm
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	end = tr.begin("perfbench.traced_run")
	trc := w.timedRun(tr, tcfg)
	end()
	pprof.StopCPUProfile()
	okTraced := gated(trc)
	passes, violations := ver.Counts()
	if violations > 0 {
		fmt.Fprintf(stderr, "perfbench: heap verifier: %d violations in %d passes: %v\n",
			violations, passes, ver.ByCheck())
	}

	end = tr.begin("perfbench.probes")
	random, seq, err := probeSimmem(tr, o.seed, o.scale)
	if err != nil {
		end()
		return report{}, err
	}
	cp, err := probeCore(tr, o.seed, o.scale)
	end()
	if err != nil {
		return report{}, err
	}
	endRoot()
	selfTimes(tr.spans)

	bySelf, err := foldProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	res := trc.res
	m := map[string]float64{
		"simmem.loads":              float64(res.Loads),
		"simmem.l1_miss_frac":       ratio(float64(res.L1Misses), float64(res.Loads)),
		"simmem.llc_miss_per_kload": ratio(float64(res.LLCMisses)*1000, float64(res.Loads)),
		"simmem.host_ns_per_load":   ratio(float64(plain.host.Nanoseconds()), float64(plain.res.Loads)),
		"simmem.replay_random_ns":   random,
		"simmem.replay_seq_ns":      seq,

		"core.gc_cycles":              float64(res.GCCycleCount),
		"core.reloc_objects":          float64(res.MutatorReloc + res.GCReloc),
		"core.ec_small_median":        res.MedianECSmall,
		"core.host_alloc_ns":          cp.allocNs,
		"core.host_barrier_ns":        cp.barrierNs,
		"core.host_gc_ms_per_live_mb": cp.gcMsPerLiveMB,

		"planes.host_off_s":         bare.host.Seconds(),
		"planes.host_overhead_frac": ratio(plain.host.Seconds()-bare.host.Seconds(), bare.host.Seconds()),
		"trace.host_run_s":          trc.host.Seconds(),
		"trace.overhead_s":          trc.host.Seconds() - plain.host.Seconds(),
	}
	reg := sink.Metrics()
	relocBy := func(who string) float64 {
		return float64(reg.Counter("hcsgc_reloc_objects_total", "", "who", who).Value())
	}
	mut := relocBy("mutator")
	m["core.mutator_reloc_frac"] = ratio(mut, mut+relocBy("gc"))
	latencyMetrics(m, lat.Report(), res)
	heapMetrics(m, sig.Snapshot())
	setupMetrics(m, tr.spans, setupID)
	kvMetrics(m, w, res, kvm)
	var cpu int64
	for _, ns := range bySelf {
		cpu += ns
	}
	for _, mod := range selfFracModules {
		m["host_self_frac."+mod] = ratio(float64(bySelf[mod]), float64(cpu))
	}
	m["host_self.cpu_s"] = float64(cpu) / 1e9

	rep := newReport(t, okPlain && okBare && okTraced && violations == 0, perLayer, m)
	tf := traceFile{
		Workload:           w.name,
		Seed:               o.seed,
		Spans:              tr.spans,
		LayerSelfNs:        layerSelf(tr.spans),
		HostSelfNs:         bySelf,
		TracingOverheadS:   m["trace.overhead_s"],
		VerifierPasses:     passes,
		VerifierViolations: violations,
		Metrics:            rep.Metrics,
	}
	fmt.Fprintf(stderr, "perfbench: heap verifier passes %d, violations %d\n", passes, violations)
	return rep, writeTrace(o.out, tf, prof.Bytes())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyMetrics reads pauses, stalls and barrier slow paths from the
// latency tracker.
func latencyMetrics(m map[string]float64, r *hcsgc.LatencyReport, res workloads.Result) {
	var pauses []float64
	for _, c := range r.Flight {
		pauses = append(pauses, float64(c.Pause1), float64(c.Pause2), float64(c.Pause3))
	}
	sort.Float64s(pauses)
	if n := len(pauses); n > 0 {
		m["core.pause_p50_cycles"] = median(pauses)
		m["core.pause_max_cycles"] = pauses[n-1]
	}
	m["core.stall_count"] = float64(r.Stall.Count)
	m["core.stall_p99_cycles"] = r.Stall.P99
	var slow uint64
	for _, path := range []string{"mark", "relocate", "remap"} {
		slow += r.Barrier[path].Hits
	}
	m["core.barrier_slow_per_kload"] = ratio(float64(slow)*1000, float64(res.Loads))
}

// heapMetrics reads hotmap density and segregation purity at mark end
// from the signal plane, as medians over the cycles that measured them.
func heapMetrics(m map[string]float64, s hcsgc.SignalsSnapshot) {
	var density, purity []float64
	for _, rec := range s.Records {
		if rec.Heap.ColdFrac >= 0 {
			density = append(density, 1-rec.Heap.ColdFrac)
		}
		if rec.Flight.SegregationPurity >= 0 {
			purity = append(purity, rec.Flight.SegregationPurity)
		}
	}
	m["heap.hotmap_density"] = median(density)
	m["heap.seg_purity"] = median(purity)
}

// setupMetrics takes the median duration of each set-up call from the
// spans under the set-up span.
func setupMetrics(m map[string]float64, spans []span, setupID int) {
	durs := map[string][]float64{}
	for _, s := range spans {
		if s.Parent == setupID {
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	m["hcsgc.host_new_runtime_ms"] = median(durs["hcsgc.NewRuntime"])
	m["loadgen.host_generate_ms"] = median(durs["loadgen.Generate"])
	m["graphgen.host_generate_ms"] = median(durs["graphgen.Generate"])
}

// kvMetrics reads serving latency from the kv metrics handle and the
// run's scores.
func kvMetrics(m map[string]float64, w workload, res workloads.Result, kvm *kvstore.Metrics) {
	if !w.kv {
		return
	}
	steady := kvm.Report(nil).Phases[loadgen.PhaseSteady].Dist
	m["kv.p50_cycles"] = steady.P50
	m["kv.p99_cycles"] = steady.P99
	m["kv.p999_cycles"] = steady.P999
	m["kv.p999_burst_cycles"] = res.Scores["kv-p999-burst"]
	m["kv.slo_met_frac"] = ratio(res.Scores["kv-goodput"], float64(res.Ops))
	m["kv.requests"] = float64(res.Ops)
}

// writeTrace writes the trace file and the raw CPU profile.
func writeTrace(dir string, tf traceFile, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", tf.Workload, tf.Seed))
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	return nil
}
