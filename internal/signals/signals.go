// Package signals is the unified per-cycle GC signal plane: at every
// cycle boundary the collector folds everything the platform already
// measures — the latency tracker's flight record (pauses, concurrent
// phases, barrier slow-path deltas, MMU ladder, utilization), the
// locality profiler's interval stats (reuse distance, stream coverage,
// segregation purity), and the heap's occupancy/allocation/relocation
// counters — into one immutable CycleSignals record. The plane keeps a
// bounded history ring, derives EWMA and trend series over a fixed set
// of scalar signals, and raises threshold-based anomaly flags.
//
// This record shape is the sensor bus ROADMAP items 3-4 consume: an
// online controller reads Derived (level + direction per signal) and
// Flags, and the tail attributor (tail.go) links slow requests back to
// the responsible record. Exposition: the /signals endpoint serves
// Snapshot, BindTelemetry registers the hcsgc_signal_* families, and
// Perfetto counter tracks carry the per-cycle series.
//
// A nil *Plane accepts every call as a no-op costing one predictable
// branch, matching the repo-wide instrumentation discipline; the priced
// difference between nil and always-on is BenchmarkSignalsOverhead.
package signals

import (
	"math"
	"sync"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Config tunes a Plane. The zero value gets usable defaults.
type Config struct {
	// History bounds the retained CycleSignals ring. Default 256.
	History int
	// EWMAAlpha is the exponential-smoothing factor in (0,1] for the
	// derived series. Default 0.3.
	EWMAAlpha float64
	// Thresholds configures the anomaly flags.
	Thresholds Thresholds
}

// Thresholds are the anomaly-flag trip points. Zero values get defaults;
// a negative value disables that flag.
type Thresholds struct {
	// MinUtilization flags "low_utilization" when the cycle-interval
	// mutator utilization drops below it. Default 0.5.
	MinUtilization float64
	// StallSpike flags "stall_spike" when a cycle saw at least this many
	// allocation stalls. Default 1 (any stall is an anomaly: PR 6 found
	// stalls, not pauses, dominate the serving tail).
	StallSpike uint64
	// MaxPauseCycles flags "long_pause" when the cycle's worst STW pause
	// meets it. Default 200_000 (~4x the calibrated pause p50).
	MaxPauseCycles uint64
	// MaxHeapUsedPct flags "heap_pressure" on post-cycle occupancy.
	// Default 85 (the 70% trigger plus headroom: the cycle did not
	// reclaim back below the trigger region).
	MaxHeapUsedPct float64
	// MinSegPurity flags "purity_drop" when segregation purity was
	// measured (>= 0) and fell below it. Default 0.5.
	MinSegPurity float64
}

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = 256
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.3
	}
	t := &c.Thresholds
	if t.MinUtilization == 0 {
		t.MinUtilization = 0.5
	}
	if t.StallSpike == 0 {
		t.StallSpike = 1
	}
	if t.MaxPauseCycles == 0 {
		t.MaxPauseCycles = 200_000
	}
	if t.MaxHeapUsedPct == 0 {
		t.MaxHeapUsedPct = 85
	}
	if t.MinSegPurity == 0 {
		t.MinSegPurity = 0.5
	}
	return c
}

// HeapSignals is the heap section of a CycleSignals record.
type HeapSignals struct {
	// UsedBeforePct/UsedAfterPct bracket the cycle's occupancy.
	UsedBeforePct float64 `json:"used_before_pct"`
	UsedAfterPct  float64 `json:"used_after_pct"`
	// AllocBytes is the mutator allocation volume since the previous
	// cycle boundary; AllocPerKCycle normalizes it by the cycle's
	// virtual-time span (bytes per 1000 virtual cycles).
	AllocBytes     uint64  `json:"alloc_bytes"`
	AllocPerKCycle float64 `json:"alloc_bytes_per_kcycle"`
	// MarkedBytes is the live data found by this mark.
	MarkedBytes uint64 `json:"marked_bytes"`
	// EC selection outcome and empty-page reclaim.
	ECSmall          int    `json:"ec_small"`
	ECMedium         int    `json:"ec_medium"`
	ECSmallLiveBytes uint64 `json:"ec_small_live_bytes"`
	PagesFreedEmpty  int    `json:"pages_freed_empty"`
	// RelocObjects/RelocBytes count relocation (GC + mutator) since the
	// previous cycle boundary.
	RelocObjects uint64 `json:"reloc_objects"`
	RelocBytes   uint64 `json:"reloc_bytes"`
	// ColdFrac is 1 - hotmap density over hot-trackable pages at mark
	// end: the fraction of live bytes never touched by a mutator this
	// era. -1 when not measured (hotness off).
	ColdFrac float64 `json:"cold_frac"`
}

// LocalitySignals is the locality-profiler section of a CycleSignals
// record: the profiler's per-cycle interval stats. Present is false (and
// the fields zero) when no profiler is attached.
type LocalitySignals struct {
	Present           bool    `json:"present"`
	ReuseP50          float64 `json:"reuse_p50_lines"`
	ReuseP90          float64 `json:"reuse_p90_lines"`
	StreamCoverage    float64 `json:"stream_coverage"`
	SeqStreamCoverage float64 `json:"seq_stream_coverage"`
	PageEntropyBits   float64 `json:"page_entropy_bits"`
	SegPurity         float64 `json:"seg_purity"`
}

// WorkerSignals is the GC-worker balance section of a CycleSignals
// record: the contention plane's per-cycle delta of the workers'
// scanned/relocated/stolen counts and its imbalance coefficient
// (stddev/mean of per-worker work; 0 = perfectly balanced). Present is
// false (fields zero) when the contention plane is opted out.
type WorkerSignals struct {
	Present   bool    `json:"present"`
	Workers   int     `json:"workers"`
	Imbalance float64 `json:"imbalance"`
	Scanned   uint64  `json:"scanned"`
	Relocated uint64  `json:"relocated"`
	Steals    uint64  `json:"steals"`
}

// ContentionSignals is the serialization section of a CycleSignals
// record: the contention plane's per-cycle lock and CAS-loop deltas
// summed across sites. Present is false when the plane is opted out.
type ContentionSignals struct {
	Present       bool    `json:"present"`
	Acquisitions  uint64  `json:"acquisitions"`
	Contended     uint64  `json:"contended"`
	ContendedFrac float64 `json:"contended_frac"`
	CASOps        uint64  `json:"cas_ops"`
	CASRetries    uint64  `json:"cas_retries"`
	RetryFrac     float64 `json:"retry_frac"`
}

// DerivedSignal is one scalar signal's derived view: the raw per-cycle
// value, its EWMA level, and the trend (EWMA delta vs the previous
// cycle; positive = rising). The controller input contract.
type DerivedSignal struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	EWMA  float64 `json:"ewma"`
	Trend float64 `json:"trend"`
}

// CycleSignals is one GC cycle's immutable unified snapshot: identity,
// the latency tracker's completed flight record, the heap and locality
// sections, the cumulative allocation-stall distribution, and the
// derived series and anomaly flags computed by the plane. Records are
// value types; once OnCycle stores one it is never mutated.
type CycleSignals struct {
	Seq     uint64 `json:"seq"`
	Trigger string `json:"trigger"`
	// VStart/VEnd bracket the cycle on the virtual timeline.
	VStart uint64 `json:"vstart_cycles"`
	VEnd   uint64 `json:"vend_cycles"`

	// Flight is the latency tracker's completed per-cycle attribution
	// record (pauses, phases, barrier deltas, stalls, MMU, utilization).
	// Zero-valued when the latency plane is disabled.
	Flight latency.CycleRecord `json:"flight"`

	Heap     HeapSignals     `json:"heap"`
	Locality LocalitySignals `json:"locality"`

	// Workers and Contention are the contention plane's per-cycle view
	// (zero-valued, Present=false, when the plane is opted out).
	Workers    WorkerSignals     `json:"workers"`
	Contention ContentionSignals `json:"contention"`

	// StallDist is the cumulative allocation-stall duration distribution
	// as of this cycle end (the signal PR 6 found dominates the tail).
	StallDist latency.Dist `json:"stall_dist"`

	// Derived and Flags are filled by Plane.OnCycle.
	Derived []DerivedSignal `json:"derived"`
	Flags   []string        `json:"flags,omitempty"`
}

// The fixed derived-signal names, in report order. Locality-sourced
// signals are only emitted when a profiler is attached; cold_frac only
// when hotness measured it.
const (
	SigUtilization     = "utilization"
	SigMaxPause        = "max_pause_cycles"
	SigStalls          = "stalls"
	SigStallP99        = "stall_p99_cycles"
	SigAllocRate       = "alloc_kb_per_kcycle"
	SigHeapUsed        = "heap_used_pct"
	SigColdFrac        = "cold_frac"
	SigBarrierSlowRate = "barrier_slow_per_kcycle"
	SigReuseP50        = "reuse_p50_lines"
	SigStreamCoverage  = "stream_coverage"
	SigSegPurity       = "seg_purity"
	SigWorkerImbalance = "worker_imbalance"
	SigLockContention  = "lock_contended_frac"
	SigCASRetryRate    = "cas_retry_frac"
)

// DerivedOrder is the deterministic emission order of the derived
// signals (and the full label set of the hcsgc_signal_* gauge families).
var DerivedOrder = []string{
	SigUtilization, SigMaxPause, SigStalls, SigStallP99,
	SigAllocRate, SigHeapUsed, SigColdFrac, SigBarrierSlowRate,
	SigReuseP50, SigStreamCoverage, SigSegPurity,
	SigWorkerImbalance, SigLockContention, SigCASRetryRate,
}

// The anomaly flags, in report order.
const (
	FlagLowUtilization = "low_utilization"
	FlagStallSpike     = "stall_spike"
	FlagLongPause      = "long_pause"
	FlagHeapPressure   = "heap_pressure"
	FlagPurityDrop     = "purity_drop"
)

// FlagNames is the full flag set (the label set of
// hcsgc_signal_flags_total).
var FlagNames = []string{
	FlagLowUtilization, FlagStallSpike, FlagLongPause,
	FlagHeapPressure, FlagPurityDrop,
}

type ewmaState struct {
	value float64
	init  bool
}

// Plane is the per-runtime signal plane. The collector calls OnCycle at
// every cycle boundary; readers take Snapshot (the /signals payload) or
// Lookup (the tail attributor's cycle link).
type Plane struct {
	cfg Config

	// mu guards the ring; taken from under the collector's cycle path
	// and the overload poller, so it ranks below every caller's lock.
	//
	//hcsgc:lock-order 60
	mu     sync.Mutex
	ring   []CycleSignals
	next   int
	total  uint64
	latest CycleSignals
	has    bool
	ewma   map[string]*ewmaState

	// Telemetry handles (nil until BindTelemetry; all nil-safe).
	valueG, ewmaG, trendG map[string]*telemetry.Gauge
	flagCtr               map[string]*telemetry.Counter
	cyclesCtr             *telemetry.Counter
	rec                   *telemetry.Recorder
}

// New builds a plane. A nil *Plane is the disabled state: every method
// is a one-branch no-op.
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	return &Plane{
		cfg:  cfg,
		ring: make([]CycleSignals, 0, cfg.History),
		ewma: make(map[string]*ewmaState, len(DerivedOrder)),
	}
}

// Config returns the (defaulted) configuration.
func (p *Plane) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// rawSignals extracts the scalar signal vector from a record. ok=false
// signals are skipped entirely (no EWMA update, no gauge publish), so an
// absent profiler never pollutes the series with zeros.
func rawSignals(rec *CycleSignals) map[string]float64 {
	span := rec.VEnd - rec.VStart
	perK := func(v uint64) float64 {
		if span == 0 {
			return 0
		}
		return float64(v) / float64(span) * 1000
	}
	maxPause := rec.Flight.Pause1
	if rec.Flight.Pause2 > maxPause {
		maxPause = rec.Flight.Pause2
	}
	if rec.Flight.Pause3 > maxPause {
		maxPause = rec.Flight.Pause3
	}
	barrierSlow := rec.Flight.Barrier.Mark + rec.Flight.Barrier.Relocate + rec.Flight.Barrier.Remap
	out := map[string]float64{
		SigUtilization:     rec.Flight.Utilization,
		SigMaxPause:        float64(maxPause),
		SigStalls:          float64(rec.Flight.Stalls),
		SigStallP99:        rec.StallDist.P99,
		SigAllocRate:       perK(rec.Heap.AllocBytes) / 1024,
		SigHeapUsed:        rec.Heap.UsedAfterPct,
		SigBarrierSlowRate: perK(barrierSlow),
	}
	if rec.Heap.ColdFrac >= 0 {
		out[SigColdFrac] = rec.Heap.ColdFrac
	}
	if rec.Locality.Present {
		out[SigReuseP50] = rec.Locality.ReuseP50
		out[SigStreamCoverage] = rec.Locality.StreamCoverage
		out[SigSegPurity] = rec.Locality.SegPurity
	}
	if rec.Workers.Present {
		out[SigWorkerImbalance] = rec.Workers.Imbalance
	}
	if rec.Contention.Present {
		out[SigLockContention] = rec.Contention.ContendedFrac
		out[SigCASRetryRate] = rec.Contention.RetryFrac
	}
	return out
}

// flags evaluates the anomaly thresholds against a record's raw values.
func (p *Plane) flags(rec *CycleSignals, raw map[string]float64) []string {
	th := p.cfg.Thresholds
	var out []string
	if th.MinUtilization > 0 && raw[SigUtilization] < th.MinUtilization {
		out = append(out, FlagLowUtilization)
	}
	if th.StallSpike > 0 && rec.Flight.Stalls >= th.StallSpike {
		out = append(out, FlagStallSpike)
	}
	if th.MaxPauseCycles > 0 && uint64(raw[SigMaxPause]) >= th.MaxPauseCycles {
		out = append(out, FlagLongPause)
	}
	if th.MaxHeapUsedPct > 0 && rec.Heap.UsedAfterPct >= th.MaxHeapUsedPct {
		out = append(out, FlagHeapPressure)
	}
	if th.MinSegPurity > 0 {
		if purity, ok := raw[SigSegPurity]; ok && purity >= 0 && purity < th.MinSegPurity {
			out = append(out, FlagPurityDrop)
		} else if !ok && rec.Flight.SegregationPurity >= 0 &&
			rec.Flight.SegregationPurity < th.MinSegPurity {
			// Purity is measured at mark end even without a locality
			// profiler (telemetry computes it); use the flight record's
			// copy so the flag works in both configurations.
			out = append(out, FlagPurityDrop)
		}
	}
	return out
}

// OnCycle completes rec (derived series, anomaly flags), appends it to
// the history ring, and publishes gauges, counters and Perfetto counter
// samples. The collector calls it at every cycle boundary, under its
// cycle lock; rec must not be retained by the caller. Nil-safe.
func (p *Plane) OnCycle(rec CycleSignals) {
	if p == nil {
		return
	}
	raw := rawSignals(&rec)

	p.mu.Lock()
	alpha := p.cfg.EWMAAlpha
	rec.Derived = make([]DerivedSignal, 0, len(raw))
	for _, name := range DerivedOrder {
		v, ok := raw[name]
		if !ok {
			continue
		}
		st := p.ewma[name]
		if st == nil {
			st = &ewmaState{}
			p.ewma[name] = st
		}
		prev := st.value
		if !st.init {
			st.value = v
			st.init = true
			prev = v
		} else {
			st.value = alpha*v + (1-alpha)*prev
		}
		rec.Derived = append(rec.Derived, DerivedSignal{
			Name: name, Value: v, EWMA: st.value, Trend: st.value - prev,
		})
	}
	rec.Flags = p.flags(&rec, raw)

	if cap(p.ring) > 0 {
		if len(p.ring) < cap(p.ring) {
			p.ring = append(p.ring, rec)
		} else {
			p.ring[p.next] = rec
			p.next = (p.next + 1) % len(p.ring)
		}
	}
	p.total++
	p.latest = rec
	p.has = true
	valueG, ewmaG, trendG := p.valueG, p.ewmaG, p.trendG
	flagCtr, cyclesCtr, recd := p.flagCtr, p.cyclesCtr, p.rec
	p.mu.Unlock()

	cyclesCtr.Inc()
	for _, d := range rec.Derived {
		valueG[d.Name].Set(d.Value)
		ewmaG[d.Name].Set(d.EWMA)
		trendG[d.Name].Set(d.Trend)
	}
	for _, f := range rec.Flags {
		flagCtr[f].Inc()
	}
	if recd != nil {
		emit := func(id uint32, v float64) {
			recd.Record(telemetry.EvCounter, id, math.Float64bits(v), rec.Seq)
		}
		emit(telemetry.CounterSignalAllocRate, raw[SigAllocRate])
		emit(telemetry.CounterSignalStallP99, raw[SigStallP99])
		emit(telemetry.CounterSignalHeapUsed, raw[SigHeapUsed])
		if v, ok := raw[SigColdFrac]; ok {
			emit(telemetry.CounterSignalColdFrac, v)
		}
	}
}

// BindTelemetry registers the hcsgc_signal_* metric families on reg
// (value/EWMA/trend gauges per derived signal, the anomaly-flag counter
// family, and the cycle counter) and enables Perfetto counter-track
// emission through rec. Nil-safe in every argument; safe to call again
// (latest runtime wins).
func (p *Plane) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if p == nil || reg == nil {
		return
	}
	valueG := make(map[string]*telemetry.Gauge, len(DerivedOrder))
	ewmaG := make(map[string]*telemetry.Gauge, len(DerivedOrder))
	trendG := make(map[string]*telemetry.Gauge, len(DerivedOrder))
	for _, name := range DerivedOrder {
		valueG[name] = reg.Gauge("hcsgc_signal_value",
			"Unified signal-plane raw value at the latest GC cycle boundary.",
			"signal", name)
		ewmaG[name] = reg.Gauge("hcsgc_signal_ewma",
			"Unified signal-plane EWMA level at the latest GC cycle boundary.",
			"signal", name)
		trendG[name] = reg.Gauge("hcsgc_signal_trend",
			"Unified signal-plane EWMA trend (positive = rising) at the latest GC cycle boundary.",
			"signal", name)
	}
	flagCtr := make(map[string]*telemetry.Counter, len(FlagNames))
	for _, f := range FlagNames {
		flagCtr[f] = reg.Counter("hcsgc_signal_flags_total",
			"Cycles on which the signal plane raised the labelled anomaly flag.",
			"flag", f)
	}
	cycles := reg.Counter("hcsgc_signal_cycles_total",
		"GC cycles recorded by the signal plane.")

	p.mu.Lock()
	p.valueG, p.ewmaG, p.trendG = valueG, ewmaG, trendG
	p.flagCtr = flagCtr
	p.cyclesCtr = cycles
	p.rec = rec
	p.mu.Unlock()
}

// Snapshot is the /signals endpoint payload.
type Snapshot struct {
	// Cycles counts every cycle ever recorded; History retains the last
	// Config.History of them, oldest first.
	Cycles  uint64  `json:"cycles"`
	History int     `json:"history_capacity"`
	Alpha   float64 `json:"ewma_alpha"`
	// Latest is the most recent record (nil before the first cycle).
	Latest *CycleSignals `json:"latest,omitempty"`
	// Records is the retained history, oldest first.
	Records []CycleSignals `json:"records"`
}

// Snapshot copies the plane's state. Nil-safe (returns the zero
// snapshot).
func (p *Plane) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Cycles:  p.total,
		History: p.cfg.History,
		Alpha:   p.cfg.EWMAAlpha,
		Records: make([]CycleSignals, 0, len(p.ring)),
	}
	s.Records = append(s.Records, p.ring[p.next:]...)
	s.Records = append(s.Records, p.ring[:p.next]...)
	if p.has {
		latest := p.latest
		s.Latest = &latest
	}
	return s
}

// Latest returns the most recent record. Nil-safe (ok=false).
func (p *Plane) Latest() (CycleSignals, bool) {
	if p == nil {
		return CycleSignals{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest, p.has
}

// Lookup finds the retained record for cycle seq (the tail attributor's
// responsible-cycle link). Nil-safe (ok=false).
func (p *Plane) Lookup(seq uint64) (CycleSignals, bool) {
	if p == nil || seq == 0 {
		return CycleSignals{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.ring {
		if p.ring[i].Seq == seq {
			return p.ring[i], true
		}
	}
	return CycleSignals{}, false
}
