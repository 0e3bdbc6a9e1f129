// Package hcsgc is the public API of the HCSGC reproduction: a managed
// heap with a ZGC-style mostly-concurrent mark-compact collector extended
// with hot/cold object segregation, as described in "Improving Program
// Locality in the GC using Hotness" (Yang, Österlund, Wrigstad, PLDI 2020).
//
// A Runtime bundles the simulated heap, the collector, the cache-hierarchy
// model that measures locality, and a machine model that folds cycle
// ledgers into execution time. Application threads attach as Mutators;
// every object access goes through the collector's load barrier and is
// charged to the mutator's simulated core.
//
// Minimal use:
//
//	rt := hcsgc.MustNewRuntime(hcsgc.Options{
//		HeapMaxBytes: 64 << 20,
//		Knobs:        hcsgc.Knobs{Hotness: true, LazyRelocate: true},
//	})
//	defer rt.Close()
//	node := rt.Types.Register("node", 2, []int{0})
//	m := rt.NewMutator(8)
//	obj := m.Alloc(node)
//	m.SetRoot(0, obj)
//	...
package hcsgc

import (
	"io"
	"sync"
	"time"

	"hcsgc/internal/contention"
	"hcsgc/internal/core"
	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/locality"
	"hcsgc/internal/machine"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/overload"
	"hcsgc/internal/signals"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Re-exported types so users never import internal packages.
type (
	// Knobs are the HCSGC tuning knobs from Table 2 of the paper.
	Knobs = core.Knobs
	// CostModel holds abstract operation costs in cycles.
	CostModel = core.CostModel
	// Mutator is an application thread's handle onto the managed heap.
	Mutator = core.Mutator
	// Ref is a colored reference to a heap object.
	Ref = heap.Ref
	// Type describes an object layout.
	Type = objmodel.Type
	// GCStats is a snapshot of collector activity.
	GCStats = core.Stats
	// CycleStats records one GC cycle.
	CycleStats = core.CycleStats
	// MemStats is the process-wide cache-model counter snapshot.
	MemStats = simmem.SystemStats
	// Machine is the core-count/clock model used for execution time.
	Machine = machine.Model
	// TelemetrySink is the live observability surface: event recorder,
	// metrics registry, and HTTP exporters (see internal/telemetry).
	TelemetrySink = telemetry.Sink
	// LocalityProfiler samples the mutator access stream for reuse
	// distance, stream coverage, page entropy and segregation purity
	// (see internal/locality).
	LocalityProfiler = locality.Profiler
	// LocalityConfig tunes the locality profiler.
	LocalityConfig = locality.Config
	// LocalityReport is a locality-profiler snapshot.
	LocalityReport = locality.Report
	// LocalityStats is one interval's derived locality measurements.
	LocalityStats = locality.Stats
	// FaultInjector is the seeded, deterministic fault-injection plane
	// (see internal/faultinject). Nil = disarmed, one branch per site.
	FaultInjector = faultinject.Injector
	// FaultConfig configures a FaultInjector.
	FaultConfig = faultinject.Config
	// HeapVerifier is the opt-in STW heap-invariant verifier
	// (see internal/heap). Nil = detached, one branch per phase boundary.
	HeapVerifier = heap.Verifier
	// HeapViolation is one invariant violation found by the verifier.
	HeapViolation = heap.Violation
	// OutOfMemoryError is the structured error returned (or carried by the
	// panic of the legacy Alloc wrappers) when the allocation-stall retry
	// budget is exhausted.
	OutOfMemoryError = core.OutOfMemoryError
	// LatencyTracker is the latency-attribution plane: HDR pause/phase/
	// stall distributions, MMU curves, barrier slow-path profiling and the
	// flight recorder (see internal/telemetry/latency). On by default;
	// Options.DisableLatency turns it off.
	LatencyTracker = latency.Tracker
	// LatencyConfig tunes the latency tracker.
	LatencyConfig = latency.Config
	// LatencyReport is a latency-tracker snapshot.
	LatencyReport = latency.Report
	// LatencyDist is one HDR distribution summary inside a LatencyReport.
	LatencyDist = latency.Dist
	// FlightRecord is one GC cycle's flight-recorder entry.
	FlightRecord = latency.CycleRecord
	// MMUReport is the minimum-mutator-utilization curve snapshot.
	MMUReport = latency.MMUReport
	// SignalPlane is the unified per-cycle GC signal plane: one immutable
	// CycleSignals record per cycle boundary with EWMA/trend derivations
	// and anomaly flags (see internal/signals). On by default;
	// Options.DisableSignals turns it off. This record is the sensor bus
	// the ROADMAP item 4 online controller consumes.
	SignalPlane = signals.Plane
	// SignalsConfig tunes the signal plane.
	SignalsConfig = signals.Config
	// CycleSignals is one GC cycle's unified signal record.
	CycleSignals = signals.CycleSignals
	// SignalsSnapshot is the /signals endpoint payload.
	SignalsSnapshot = signals.Snapshot
	// ContentionPlane is the contention & scalability attribution plane:
	// per-site lock acquisition/contended counts and wait histograms,
	// CAS retry profiling, and GC-worker balance (see
	// internal/contention). On by default; Options.DisableContention
	// turns it off. Its ranked snapshot is the serialization list
	// ROADMAP item 1's sharding work starts from.
	ContentionPlane = contention.Plane
	// ContentionSnapshot is the /contention endpoint payload.
	ContentionSnapshot = contention.Snapshot
	// TailAttributor classifies SLO-violating requests by cause
	// (stw-pause / alloc-stall / queued-behind-stall / service) and links
	// them to the responsible cycle's CycleSignals record.
	TailAttributor = signals.TailAttributor
	// TailConfig tunes a TailAttributor.
	TailConfig = signals.TailConfig
	// TailReport is a TailAttributor snapshot (the /tailattr payload).
	TailReport = signals.TailReport
	// TailClassifier is one serving thread's classification front-end.
	TailClassifier = signals.Classifier
	// TailObs is one completed request's raw attribution observation.
	TailObs = signals.Obs
	// DeadlineExceededError is the structured error returned when a
	// per-request allocation budget (Mutator.SetAllocBudget) runs out:
	// the request fails fast instead of joining a stall convoy.
	DeadlineExceededError = core.DeadlineExceededError
	// OverloadController is the serving path's admission-control state
	// machine (Normal → Brownout → Shed with hysteresis), consuming the
	// signal plane and live heap occupancy (see internal/overload).
	OverloadController = overload.Controller
	// OverloadPolicy is the overload plane's tunable configuration.
	OverloadPolicy = overload.Policy
	// OverloadHooks are the controller's levers into the runtime.
	OverloadHooks = overload.Hooks
	// OverloadStats accumulates the overload plane's request-outcome
	// accounting (sheds, fast-fails, retries, goodput/badput).
	OverloadStats = overload.Stats
	// OverloadReport is an overload-plane accounting snapshot (the
	// /overload payload).
	OverloadReport = overload.Report
	// OverloadError is one shed admission decision.
	OverloadError = overload.Error
)

// Sentinel errors for errors.Is against allocation failures.
var (
	// ErrOutOfMemory is in the chain of every exhausted allocation.
	ErrOutOfMemory = core.ErrOutOfMemory
	// ErrHeapFull is the underlying page-commit failure cause.
	ErrHeapFull = heap.ErrHeapFull
	// ErrDeadlineExceeded is in the chain of every allocation aborted by
	// a per-request budget (Mutator.SetAllocBudget).
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrOverload is in the chain of every request shed by admission
	// control (OverloadController.Admit).
	ErrOverload = overload.ErrOverload
)

// NewOverloadController builds the admission-control state machine over a
// policy, a signal plane, runtime hooks, and an optional fault injector;
// decisions and outcomes are recorded into stats (which may be shared
// across runs; nil discards them). See internal/overload.
func NewOverloadController(pol OverloadPolicy, plane *SignalPlane, hooks OverloadHooks, inj *FaultInjector, stats *OverloadStats) *OverloadController {
	return overload.NewController(pol, plane, hooks, inj, stats)
}

// NewOverloadStats returns an empty overload accounting accumulator.
func NewOverloadStats() *OverloadStats { return overload.NewStats() }

// NewFaultInjector builds an armed injector from a fault configuration.
// Pass it via Options.FaultInjector.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultinject.New(cfg) }

// RandomFaultConfig derives a bounded randomized fault configuration from a
// seed — the chaos soak's per-run schedule. The same seed always yields the
// same configuration and the same injection decisions.
func RandomFaultConfig(seed int64) FaultConfig { return faultinject.Randomized(seed) }

// NewHeapVerifier builds a heap verifier. Pass it via Options.Verifier;
// when Options.Telemetry is also set, its counters are bound into the
// sink's registry as hcsgc_verify_*.
func NewHeapVerifier() *HeapVerifier { return heap.NewVerifier() }

// NewTelemetrySink builds an enabled telemetry sink. Pass it via
// Options.Telemetry (several runtimes may share one sink; its metrics
// then accumulate across them) and serve it with Sink.Serve.
func NewTelemetrySink() *TelemetrySink { return telemetry.NewSink() }

// NewLocalityProfiler builds an enabled locality profiler. Pass it via
// Options.Locality; when Options.Telemetry is also set the runtime binds
// the profiler's metrics into the sink's registry and serves its report
// on the sink's /locality endpoint.
func NewLocalityProfiler(cfg LocalityConfig) *LocalityProfiler { return locality.New(cfg) }

// NewLatencyTracker builds a latency tracker with a non-default
// configuration. Pass it via Options.Latency; a runtime without one (and
// without DisableLatency) creates a default tracker itself.
func NewLatencyTracker(cfg LatencyConfig) *LatencyTracker { return latency.New(cfg) }

// NewSignalPlane builds a signal plane with a non-default configuration.
// Pass it via Options.Signals; a runtime without one (and without
// DisableSignals) creates a default plane itself.
func NewSignalPlane(cfg SignalsConfig) *SignalPlane { return signals.New(cfg) }

// NewContentionPlane builds a contention plane. Pass it via
// Options.Contention to share one plane across runtimes; a runtime
// without one (and without DisableContention) creates its own.
func NewContentionPlane() *ContentionPlane { return contention.New() }

// NewTailAttributor builds a request-level tail attributor. Serving
// harnesses create per-thread classifiers from it via
// TailAttributor.Classifier(rt.Signals).
func NewTailAttributor(cfg TailConfig) *TailAttributor { return signals.NewTailAttributor(cfg) }

// NullRef is the null reference.
const NullRef = heap.NullRef

// Machine model presets (see internal/machine).
var (
	// LaptopMachine models the paper's 2-core/4-thread i7-4600U.
	LaptopMachine = machine.Laptop()
	// SingleCoreMachine models the taskset run of Fig. 6.
	SingleCoreMachine = machine.SingleCore()
	// ServerMachine models the 32-core Opteron used for SPECjbb.
	ServerMachine = machine.Server()
)

// Options configures a Runtime. The zero value is a usable 256 MB heap
// with original-ZGC behaviour on the laptop machine model.
type Options struct {
	// HeapMaxBytes is the committed-heap limit (like -Xmx). 0 = 256 MB.
	HeapMaxBytes uint64
	// Knobs are the HCSGC tuning knobs; the zero value is original ZGC.
	Knobs Knobs
	// GCWorkers is the concurrent GC thread count. 0 = 2.
	GCWorkers int
	// TriggerPercent is the occupancy that triggers a cycle. 0 = 70.
	TriggerPercent float64
	// EvacThreshold is the evacuation live-ratio threshold. 0 = 0.75
	// (the paper's 75%).
	EvacThreshold float64
	// Machine is the execution-time model. Zero value = LaptopMachine.
	Machine Machine
	// MemConfig overrides the cache hierarchy; nil = the paper's laptop
	// (32KB L1 / 256KB L2 / 4MB LLC, stream prefetcher).
	MemConfig *simmem.HierarchyConfig
	// DisableMemModel turns off cache simulation entirely (unit tests,
	// functional runs).
	DisableMemModel bool
	// Costs overrides the abstract cost model; zero value = defaults.
	Costs CostModel
	// StartDriver launches the background occupancy-triggered GC driver.
	StartDriver bool
	// Telemetry attaches a live observability sink (nil = disabled; the
	// disabled instrumentation costs one predictable branch per site).
	Telemetry *TelemetrySink
	// Locality attaches a sampling locality profiler (nil = disabled;
	// each mutator access site then costs one predictable branch).
	Locality *LocalityProfiler
	// Latency overrides the latency tracker (HDR pause/phase/stall
	// distributions, MMU, barrier profile, flight recorder). Nil = the
	// runtime builds one with default configuration; the plane is
	// always-on unless DisableLatency is set.
	Latency *LatencyTracker
	// DisableLatency turns the latency-attribution plane off entirely
	// (each instrumentation site then costs one predictable branch).
	DisableLatency bool
	// Signals overrides the unified signal plane. Nil = the runtime
	// builds one with default configuration; the plane is always-on
	// unless DisableSignals is set.
	Signals *SignalPlane
	// DisableSignals turns the signal plane off entirely (the cycle
	// boundary and each allocation then cost one predictable branch).
	DisableSignals bool
	// Contention overrides the contention attribution plane. Nil = the
	// runtime builds one; the plane is always-on unless
	// DisableContention is set.
	Contention *ContentionPlane
	// DisableContention turns the contention plane off entirely (every
	// instrumented lock then behaves as a bare sync.Mutex plus one
	// predictable branch per operation).
	DisableContention bool
	// FaultInjector arms the fault-injection plane (nil = disarmed; each
	// injection point then costs one predictable branch).
	FaultInjector *FaultInjector
	// Verifier attaches the STW heap verifier, run at the end of every
	// pause (nil = detached).
	Verifier *HeapVerifier
	// StallRetries bounds the allocation-stall loop: after this many
	// stall-and-collect attempts the allocator returns ErrOutOfMemory.
	// 0 = 16.
	StallRetries int
	// StallBackoff sleeps (attempt-1)*StallBackoff between stall retries.
	StallBackoff time.Duration
	// StallDeadline bounds the stall loop by wall clock; 0 = no deadline.
	StallDeadline time.Duration
	// STWWatchdog is the wall-clock deadline for mutators to reach a
	// stop-the-world safepoint before the collector emits a diagnostic
	// flight-recorder dump naming the stragglers. 0 = 30s; negative
	// disables the watchdog.
	STWWatchdog time.Duration
}

// Runtime bundles the full system.
type Runtime struct {
	Heap      *heap.Heap
	Collector *core.Collector
	Mem       *simmem.Hierarchy // nil when DisableMemModel
	Types     *objmodel.Registry
	Machine   Machine
	// Latency is the runtime's latency tracker; nil when DisableLatency.
	Latency *LatencyTracker
	// Signals is the runtime's signal plane; nil when DisableSignals.
	Signals *SignalPlane
	// Contention is the runtime's contention attribution plane; nil when
	// DisableContention.
	Contention *ContentionPlane

	mu       sync.Mutex
	mutators []*Mutator
	closed   bool
}

// NewRuntime builds a runtime from options.
func NewRuntime(opts Options) (*Runtime, error) {
	ctn := opts.Contention
	if ctn == nil && !opts.DisableContention {
		ctn = contention.New()
	}
	if opts.DisableContention {
		ctn = nil
	}
	var mem *simmem.Hierarchy
	if !opts.DisableMemModel {
		cfg := simmem.DefaultConfig()
		if opts.MemConfig != nil {
			cfg = *opts.MemConfig
		}
		var err error
		mem, err = simmem.NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		if ctn != nil {
			mem.SetContention(ctn)
		}
	}
	h := heap.New(heap.Config{
		MaxBytes:        opts.HeapMaxBytes,
		EnableTinyClass: opts.Knobs.TinyPages,
		Injector:        opts.FaultInjector,
		Contention:      ctn,
	}, mem)
	h.SetRecorder(opts.Telemetry.Recorder())
	if opts.Verifier != nil {
		if opts.Telemetry != nil {
			opts.Verifier.BindTelemetry(opts.Telemetry.Metrics())
		}
		h.SetVerifier(opts.Verifier)
	}
	lat := opts.Latency
	if lat == nil && !opts.DisableLatency {
		lat = latency.New(latency.Config{})
	}
	if opts.DisableLatency {
		lat = nil
	}
	sig := opts.Signals
	if sig == nil && !opts.DisableSignals {
		sig = signals.New(signals.Config{})
	}
	if opts.DisableSignals {
		sig = nil
	}
	types := objmodel.NewRegistry()
	col, err := core.New(h, types, core.Config{
		Knobs:          opts.Knobs,
		Costs:          opts.Costs,
		GCWorkers:      opts.GCWorkers,
		TriggerPercent: opts.TriggerPercent,
		EvacThreshold:  opts.EvacThreshold,
		Telemetry:      opts.Telemetry,
		Locality:       opts.Locality,
		Latency:        lat,
		Signals:        sig,
		Contention:     ctn,
		FaultInjector:  opts.FaultInjector,
		StallRetries:   opts.StallRetries,
		StallBackoff:   opts.StallBackoff,
		StallDeadline:  opts.StallDeadline,
		STWWatchdog:    opts.STWWatchdog,
	})
	if err != nil {
		return nil, err
	}
	opts.Telemetry.SetGCLog(col.WriteGCLog)
	if opts.Locality != nil && opts.Telemetry != nil {
		opts.Locality.BindTelemetry(opts.Telemetry.Metrics(), opts.Telemetry.Recorder())
		opts.Telemetry.Publish("locality", func() any { return opts.Locality.Report() })
	}
	if lat != nil && opts.Telemetry != nil {
		lat.BindTelemetry(opts.Telemetry.Metrics(), opts.Telemetry.Recorder())
		opts.Telemetry.Publish("mmu", func() any { return lat.MMUSnapshot() })
		opts.Telemetry.SetFlightRecorder(func(w io.Writer) error {
			return lat.WriteFlight(w, "on-demand")
		}, lat.Rearm)
	}
	if sig != nil && opts.Telemetry != nil {
		sig.BindTelemetry(opts.Telemetry.Metrics(), opts.Telemetry.Recorder())
		opts.Telemetry.Publish("signals", func() any { return sig.Snapshot() })
	}
	if ctn != nil && opts.Telemetry != nil {
		// The registry and recorder cannot adopt contention.Mutex (import
		// cycle through telemetry/latency); they self-report as sources.
		reg, rec := opts.Telemetry.Metrics(), opts.Telemetry.Recorder()
		ctn.AddSource("telemetry.registryMu", func() (uint64, uint64) { return reg.MuStats() })
		ctn.AddSource("telemetry.recorderShards", func() (uint64, uint64) { return rec.MuStats() })
		ctn.BindTelemetry(reg, rec)
		opts.Telemetry.Publish("contention", func() any { return ctn.Snapshot() })
	}
	mach := opts.Machine
	if mach.Cores == 0 {
		mach = LaptopMachine
	}
	rt := &Runtime{
		Heap:       h,
		Collector:  col,
		Mem:        mem,
		Types:      types,
		Machine:    mach,
		Latency:    lat,
		Signals:    sig,
		Contention: ctn,
	}
	if opts.StartDriver {
		col.StartDriver()
	}
	return rt, nil
}

// MustNewRuntime is NewRuntime but panics on error.
func MustNewRuntime(opts Options) *Runtime {
	rt, err := NewRuntime(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// NewMutator attaches an application thread with the given root-slot
// count. The runtime remembers it for the final execution-time ledger.
func (rt *Runtime) NewMutator(rootSlots int) *Mutator {
	m := rt.Collector.NewMutator(rootSlots)
	rt.mu.Lock()
	rt.mutators = append(rt.mutators, m)
	rt.mu.Unlock()
	return m
}

// Close stops the background driver. The runtime must not be used after.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	rt.Collector.StopDriver()
}

// Ledger assembles the machine-model input from every mutator ever
// attached plus the collector's concurrent and pause work.
func (rt *Runtime) Ledger() machine.Ledger {
	rt.mu.Lock()
	muts := make([]*Mutator, len(rt.mutators))
	copy(muts, rt.mutators)
	rt.mu.Unlock()
	l := machine.Ledger{}
	for _, m := range muts {
		l.MutatorCycles = append(l.MutatorCycles, m.Cycles())
	}
	st := rt.Collector.Stats()
	l.GCCycles = st.GCWorkerCycles
	l.PauseCycles = st.TotalPauseCycles
	return l
}

// ExecSeconds returns the simulated wall-clock execution time so far.
func (rt *Runtime) ExecSeconds() float64 {
	return rt.Machine.ExecSeconds(rt.Ledger())
}

// MemStats snapshots the process-wide cache counters (perf analogue).
// Returns the zero value when the memory model is disabled.
func (rt *Runtime) MemStats() MemStats {
	if rt.Mem == nil {
		return MemStats{}
	}
	return rt.Mem.Stats()
}

// GC runs one synchronous collection cycle (no mutator may be running on
// the calling goroutine; use Mutator.RequestGC from mutator context).
func (rt *Runtime) GC() {
	rt.Collector.Collect("explicit")
}
