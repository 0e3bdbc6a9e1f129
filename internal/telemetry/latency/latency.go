// Package latency is the HCSGC latency-attribution plane: mergeable HDR
// histograms over every STW pause, concurrent-phase duration and
// allocation stall; a minimum-mutator-utilization (MMU) tracker over the
// virtual timeline; per-path load-barrier slow-path profiling; and an
// always-on bounded flight recorder of per-cycle summaries that dumps
// structured JSON when something goes wrong (heap-verifier violation,
// ErrOutOfMemory) or on demand.
//
// All durations are simulated cycles — the same deterministic clock the
// rest of the runtime is judged on — so percentiles and MMU curves are
// comparable across runs and configurations, the way the paper's §4
// evaluation compares them.
//
// A nil *Tracker accepts every call as a no-op costing one predictable
// branch, matching the repo-wide instrumentation discipline; the priced
// difference between nil and always-on is BenchmarkLatencyOverhead.
package latency

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"hcsgc/internal/telemetry"
)

// BarrierPath classifies load-barrier slow-path work.
type BarrierPath uint8

// The barrier slow-path families. Mark/Relocate/Remap are the primary
// dispatch outcomes; HotmapRecord flags the hotness CAS that can ride
// along a mark-path entry.
const (
	// PathMark: mark-phase entry — mark and queue the object.
	PathMark BarrierPath = iota
	// PathRelocate: relocate-phase entry on an evacuation-candidate page —
	// the mutator races the GC to copy the object.
	PathRelocate
	// PathRemap: forwarding-table resolution (mark phase) or a
	// recolor-only relocate-phase entry on a non-candidate page.
	PathRemap
	// PathHotmapRecord: a successful hotness CAS (§3.1.2).
	PathHotmapRecord

	numPaths = 4
)

// String names the path for metrics labels and reports.
func (p BarrierPath) String() string {
	switch p {
	case PathMark:
		return "mark"
	case PathRelocate:
		return "relocate"
	case PathRemap:
		return "remap"
	case PathHotmapRecord:
		return "hotmap_record"
	default:
		return "unknown"
	}
}

// PhaseKind classifies concurrent-phase durations.
type PhaseKind uint8

// The concurrent phases of one cycle.
const (
	// PhaseMark is the concurrent mark (STW1 resume to STW2 stop).
	PhaseMark PhaseKind = iota
	// PhaseECSelect is the concurrent evacuation-candidate selection.
	PhaseECSelect
	// PhaseRelocDrain is one GC worker's relocation drain of the
	// evacuation set.
	PhaseRelocDrain

	numPhases = 3
)

// String names the phase for metrics labels and reports.
func (k PhaseKind) String() string {
	switch k {
	case PhaseMark:
		return "mark"
	case PhaseECSelect:
		return "ec_select"
	case PhaseRelocDrain:
		return "relocate"
	default:
		return "unknown"
	}
}

// pauseNames label the three STW pauses, indexed 0..2.
var pauseNames = [3]string{"stw1", "stw2", "stw3"}

// DefaultMMUWindows is the paper-style MMU window ladder in simulated
// cycles: 1/5/20/100 kcycles.
var DefaultMMUWindows = []uint64{1_000, 5_000, 20_000, 100_000}

// Config tunes a Tracker. The zero value gets usable defaults.
type Config struct {
	// MMUWindows is the MMU window ladder in simulated cycles, ascending.
	// Default DefaultMMUWindows.
	MMUWindows []uint64
	// MaxIntervals bounds the retained stop intervals; past it the oldest
	// half is dropped and the MMU domain advances. Default 2048.
	MaxIntervals int
	// FlightRecords is the flight-recorder ring size. Default 64.
	FlightRecords int
	// AutoDumpLimit caps automatic dumps per tracker so a violation storm
	// cannot flood the output. Default 8.
	AutoDumpLimit int
	// DumpTo receives automatic dumps as single-line JSON. Default
	// os.Stderr.
	DumpTo io.Writer
	// SampleShift sets barrier-latency sampling to 1 in 2^shift slow-path
	// entries. Default 6 (1 in 64); there is no exhaustive setting — use
	// shift 1 for 1-in-2. Hit counters are always exact.
	SampleShift uint
}

func (c Config) withDefaults() Config {
	if len(c.MMUWindows) == 0 {
		c.MMUWindows = DefaultMMUWindows
	}
	if c.MaxIntervals <= 0 {
		c.MaxIntervals = 2048
	}
	if c.FlightRecords <= 0 {
		c.FlightRecords = 64
	}
	if c.AutoDumpLimit <= 0 {
		c.AutoDumpLimit = 8
	}
	if c.DumpTo == nil {
		c.DumpTo = os.Stderr
	}
	if c.SampleShift == 0 {
		c.SampleShift = 6
	}
	return c
}

// Tracker is the latency-attribution instance for one runtime. The
// collector feeds it pause/phase/stall intervals and barrier slow-path
// events; it maintains the HDR distributions, the MMU state and the
// flight recorder, and publishes to telemetry at each cycle boundary.
type Tracker struct {
	cfg Config

	pause      [3]*Hist
	phase      [numPhases]*Hist
	stall      *Hist
	barrierLat [numPaths]*Hist

	barrierHits [numPaths]atomic.Uint64
	// curPhase accumulates this cycle's per-phase durations, swapped out
	// at each OnCycle into the flight record.
	curPhase  [numPhases]atomic.Uint64
	sampleCtr atomic.Uint64

	mmu *mmuState

	mu sync.Mutex
	// barrierSynced/ctrSynced are per-path watermarks for flight-record
	// deltas and telemetry counter syncing (both advance at OnCycle).
	barrierSynced [numPaths]uint64
	ctrSynced     [numPaths]uint64
	ring          *flightRing
	dumps         uint64

	// Telemetry handles (nil until BindTelemetry; all nil-safe).
	mmuGauges  []*telemetry.Gauge
	utilGauge  *telemetry.Gauge
	pathCtrs   [numPaths]*telemetry.Counter
	dumpsTotal *telemetry.Counter
	dumpsLeft  *telemetry.Gauge
	rec        *telemetry.Recorder
}

// New builds a tracker. A nil *Tracker is the disabled state: every method
// is a one-branch no-op.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:   cfg,
		stall: NewHist(),
		mmu:   newMMUState(cfg.MMUWindows, cfg.MaxIntervals),
		ring:  newFlightRing(cfg.FlightRecords),
	}
	for i := range t.pause {
		t.pause[i] = NewHist()
	}
	for i := range t.phase {
		t.phase[i] = NewHist()
	}
	for i := range t.barrierLat {
		t.barrierLat[i] = NewHist()
	}
	return t
}

// Config returns the (defaulted) configuration.
func (t *Tracker) Config() Config {
	if t == nil {
		return Config{}
	}
	return t.cfg
}

// RecordPause records STW pause i (0-based: stw1..stw3) costing `cost`
// cycles starting at virtual time startV. A pause stops every mutator
// (MMU weight 1).
func (t *Tracker) RecordPause(i int, startV, cost uint64) {
	if t == nil || i < 0 || i >= len(t.pause) {
		return
	}
	t.pause[i].Record(cost)
	t.mmu.addStop(startV, startV+cost, 1)
}

// RecordPhase records one concurrent-phase execution over virtual
// [startV, endV]. Concurrent phases do not stop mutators, so they feed
// the duration distributions but not the MMU timeline.
//
// Zero-duration executions (endV == startV) are recorded: the virtual
// clock only advances through mutator cycles and pause cost, so a phase
// that ran between two clock readings with no interleaved mutator
// progress — routine in single-mutator synchronous tests — legitimately
// costs 0 virtual cycles, and its execution must still appear in the
// distribution's count. Only an inverted interval (endV < startV, a
// caller bug) is dropped.
func (t *Tracker) RecordPhase(k PhaseKind, startV, endV uint64) {
	if t == nil || k >= numPhases || endV < startV {
		return
	}
	d := endV - startV
	t.phase[k].Record(d)
	t.curPhase[k].Add(d)
}

// RecordStall records one allocation stall over virtual [startV, endV]
// that stopped the weight-fraction of the mutators (1/numMutators).
func (t *Tracker) RecordStall(startV, endV uint64, weight float64) {
	if t == nil || endV <= startV {
		return
	}
	t.stall.Record(endV - startV)
	t.mmu.addStop(startV, endV, weight)
}

// BarrierHit counts one slow-path event on path p. Exact (not sampled).
func (t *Tracker) BarrierHit(p BarrierPath) {
	if t == nil || p >= numPaths {
		return
	}
	t.barrierHits[p].Add(1)
}

// SampleBarrier reports whether this slow-path entry should measure its
// latency (1 in 2^SampleShift).
func (t *Tracker) SampleBarrier() bool {
	if t == nil {
		return false
	}
	mask := (uint64(1) << t.cfg.SampleShift) - 1
	return t.sampleCtr.Add(1)&mask == 0
}

// RecordBarrierLatency records a sampled slow-path latency on path p.
func (t *Tracker) RecordBarrierLatency(p BarrierPath, cycles uint64) {
	if t == nil || p >= numPaths {
		return
	}
	t.barrierLat[p].Record(cycles)
}

// OnCycle is the cycle-boundary hook: the collector passes a record with
// the identity, pause, EC and verifier fields filled in; the tracker
// completes it (phase durations, barrier deltas, MMU and utilization),
// appends it to the flight ring, and publishes gauges, counters and
// Perfetto counter-track samples. The completed record is returned so the
// signal plane can fold it into its CycleSignals snapshot without
// re-deriving the attribution fields.
func (t *Tracker) OnCycle(rec CycleRecord) CycleRecord {
	if t == nil {
		return rec
	}
	for k := 0; k < numPhases; k++ {
		d := t.curPhase[k].Swap(0)
		switch PhaseKind(k) {
		case PhaseMark:
			rec.MarkCycles = d
		case PhaseECSelect:
			rec.ECSelectCycles = d
		case PhaseRelocDrain:
			rec.RelocateCycles = d
		}
	}
	t.mmu.advance(rec.VEnd)
	snap := t.mmu.snapshot()
	rec.MMU = snap.Windows
	rec.Utilization = t.mmu.utilizationBetween(rec.VStart, rec.VEnd)

	t.mu.Lock()
	var hits, deltas [numPaths]uint64
	for p := 0; p < numPaths; p++ {
		hits[p] = t.barrierHits[p].Load()
		deltas[p] = hits[p] - t.barrierSynced[p]
		t.barrierSynced[p] = hits[p]
	}
	rec.Barrier = BarrierProfile{
		Mark:         deltas[PathMark],
		Relocate:     deltas[PathRelocate],
		Remap:        deltas[PathRemap],
		HotmapRecord: deltas[PathHotmapRecord],
	}
	t.ring.add(rec)
	gauges := t.mmuGauges
	utilG := t.utilGauge
	recd := t.rec
	var ctrAdd [numPaths]uint64
	for p := 0; p < numPaths; p++ {
		if t.pathCtrs[p] != nil {
			ctrAdd[p] = hits[p] - t.ctrSynced[p]
			t.ctrSynced[p] = hits[p]
		}
	}
	ctrs := t.pathCtrs
	t.mu.Unlock()

	for i, g := range gauges {
		if i < len(snap.Windows) {
			g.Set(snap.Windows[i].MMU)
		}
	}
	utilG.Set(rec.Utilization)
	for p := 0; p < numPaths; p++ {
		ctrs[p].Add(ctrAdd[p])
	}
	if recd != nil {
		for i, pt := range snap.Windows {
			if i >= 4 {
				break
			}
			recd.Record(telemetry.EvCounter, telemetry.CounterMMU1k+uint32(i),
				math.Float64bits(pt.MMU), rec.Seq)
		}
		recd.Record(telemetry.EvCounter, telemetry.CounterUtilization,
			math.Float64bits(rec.Utilization), rec.Seq)
	}
	return rec
}

// BindTelemetry registers the hcsgc_pause/phase/stall/barrier/mmu metric
// families on reg (summaries are backed live by the HDR histograms) and
// enables Perfetto counter-track emission through rec. Nil-safe in every
// argument; safe to call again (latest runtime wins).
func (t *Tracker) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if t == nil || reg == nil {
		return
	}
	for i, name := range pauseNames {
		reg.Summary("hcsgc_pause_cycles",
			"STW pause cost per cycle, in simulated cycles (HDR summary).",
			t.pause[i], "phase", name)
	}
	for k := 0; k < numPhases; k++ {
		reg.Summary("hcsgc_phase_cycles",
			"Concurrent GC phase duration, in simulated cycles (HDR summary).",
			t.phase[k], "phase", PhaseKind(k).String())
	}
	reg.Summary("hcsgc_stall_cycles",
		"Allocation-stall duration, in simulated cycles (HDR summary).",
		t.stall)
	var gauges []*telemetry.Gauge
	for _, w := range t.cfg.MMUWindows {
		gauges = append(gauges, reg.Gauge("hcsgc_mmu_ratio",
			"Minimum mutator utilization over the labelled window, in simulated cycles.",
			"window_cycles", fmt.Sprintf("%d", w)))
	}
	utilG := reg.Gauge("hcsgc_mutator_utilization_ratio",
		"Mutator utilization over the last GC cycle interval.")
	var ctrs [numPaths]*telemetry.Counter
	for p := 0; p < numPaths; p++ {
		path := BarrierPath(p).String()
		reg.Summary("hcsgc_barrier_path_cycles",
			"Sampled load-barrier slow-path latency by path, in simulated cycles (HDR summary).",
			t.barrierLat[p], "path", path)
		ctrs[p] = reg.Counter("hcsgc_barrier_path_total",
			"Load-barrier slow-path entries by path (synced at cycle boundaries).",
			"path", path)
	}
	dumps := reg.Counter("hcsgc_flight_dumps_total",
		"Automatic flight-recorder dumps (verifier failure, OOM).")
	dumpsLeft := reg.Gauge("hcsgc_flight_dumps_remaining",
		"Automatic flight-recorder dumps left before the cap (re-armable via /flightrecorder?rearm=1).")

	t.mu.Lock()
	t.mmuGauges = gauges
	t.utilGauge = utilG
	t.pathCtrs = ctrs
	t.ctrSynced = [numPaths]uint64{}
	t.dumpsTotal = dumps
	t.dumpsLeft = dumpsLeft
	t.rec = rec
	left := uint64(t.cfg.AutoDumpLimit)
	if t.dumps < left {
		left -= t.dumps
	} else {
		left = 0
	}
	t.mu.Unlock()
	dumpsLeft.Set(float64(left))
}

// Report snapshots the full latency-attribution state. Nil-safe (returns
// nil).
func (t *Tracker) Report() *Report {
	if t == nil {
		return nil
	}
	r := &Report{
		Pauses:  make(map[string]Dist, 3),
		Phases:  make(map[string]Dist, numPhases),
		Barrier: make(map[string]BarrierPathReport, numPaths),
		Stall:   distOf(t.stall),
		MMU:     t.mmu.snapshot(),
	}
	for i, name := range pauseNames {
		r.Pauses[name] = distOf(t.pause[i])
	}
	for k := 0; k < numPhases; k++ {
		r.Phases[PhaseKind(k).String()] = distOf(t.phase[k])
	}
	for p := 0; p < numPaths; p++ {
		r.Barrier[BarrierPath(p).String()] = BarrierPathReport{
			Hits:    t.barrierHits[p].Load(),
			Sampled: distOf(t.barrierLat[p]),
		}
	}
	t.mu.Lock()
	r.Flight = t.ring.records()
	r.Cycles = t.ring.total
	r.FlightDumps = t.dumps
	t.mu.Unlock()
	return r
}

// MMUSnapshot computes the current MMU report (the /mmu endpoint payload).
// Nil-safe (returns the zero report).
func (t *Tracker) MMUSnapshot() MMUReport {
	if t == nil {
		return MMUReport{}
	}
	return t.mmu.snapshot()
}

// AutoDump writes one bounded single-line JSON flight dump to the
// configured DumpTo, capped at AutoDumpLimit per tracker. The collector
// calls it on new verifier violations; the allocator on ErrOutOfMemory.
// Nil-safe.
func (t *Tracker) AutoDump(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.dumps >= uint64(t.cfg.AutoDumpLimit) {
		t.mu.Unlock()
		return
	}
	t.dumps++
	dumps := t.dumpsTotal
	left := t.dumpsLeft
	remaining := uint64(t.cfg.AutoDumpLimit) - t.dumps
	t.mu.Unlock()
	dumps.Inc()
	left.Set(float64(remaining))
	writeDump(t.cfg.DumpTo, FlightDump{Reason: reason, Report: t.Report()}, false)
}

// Rearm resets the automatic-dump budget back to AutoDumpLimit (served by
// /flightrecorder?rearm=1), so an operator who has collected the capped
// dumps can keep the recorder live without restarting. Nil-safe.
func (t *Tracker) Rearm() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dumps = 0
	left := t.dumpsLeft
	t.mu.Unlock()
	left.Set(float64(t.cfg.AutoDumpLimit))
}

// DumpsRemaining returns the automatic dumps left before the cap.
func (t *Tracker) DumpsRemaining() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dumps >= uint64(t.cfg.AutoDumpLimit) {
		return 0
	}
	return uint64(t.cfg.AutoDumpLimit) - t.dumps
}

// StallDist summarizes the allocation-stall distribution (the signal
// plane's per-cycle stall view). Nil-safe (returns the zero Dist).
func (t *Tracker) StallDist() Dist {
	if t == nil {
		return Dist{}
	}
	return distOf(t.stall)
}

// WriteFlight renders an on-demand flight dump to w as indented JSON (the
// /flightrecorder endpoint and the latency report). Nil-safe: a nil tracker
// writes a dump with a null report.
func (t *Tracker) WriteFlight(w io.Writer, reason string) error {
	return writeDump(w, FlightDump{Reason: reason, Report: t.Report()}, true)
}

// Dumps returns the automatic-dump count.
func (t *Tracker) Dumps() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dumps
}

// Aggregate merges per-run trackers into one Report for A/B benching:
// distributions merge exactly (HDR slot addition), barrier hits sum, and
// MMU takes the worst (minimum) value per window across runs. Flight
// records are not aggregated.
func Aggregate(trackers []*Tracker) *Report {
	pause := [3]*Hist{NewHist(), NewHist(), NewHist()}
	phase := [numPhases]*Hist{NewHist(), NewHist(), NewHist()}
	stall := NewHist()
	var barrierLat [numPaths]*Hist
	for p := range barrierLat {
		barrierLat[p] = NewHist()
	}
	var hits [numPaths]uint64
	var mmuMin map[uint64]float64
	var utilMin float64 = 1
	var span, cycles, dumps uint64
	for _, t := range trackers {
		if t == nil {
			continue
		}
		for i := range pause {
			pause[i].Merge(t.pause[i])
		}
		for k := range phase {
			phase[k].Merge(t.phase[k])
		}
		stall.Merge(t.stall)
		for p := 0; p < numPaths; p++ {
			barrierLat[p].Merge(t.barrierLat[p])
			hits[p] += t.barrierHits[p].Load()
		}
		snap := t.mmu.snapshot()
		if mmuMin == nil {
			mmuMin = make(map[uint64]float64)
		}
		for _, pt := range snap.Windows {
			if cur, ok := mmuMin[pt.WindowCycles]; !ok || pt.MMU < cur {
				mmuMin[pt.WindowCycles] = pt.MMU
			}
		}
		if snap.Utilization < utilMin {
			utilMin = snap.Utilization
		}
		if snap.SpanCycles > span {
			span = snap.SpanCycles
		}
		t.mu.Lock()
		cycles += t.ring.total
		dumps += t.dumps
		t.mu.Unlock()
	}
	r := &Report{
		Pauses:      make(map[string]Dist, 3),
		Phases:      make(map[string]Dist, numPhases),
		Barrier:     make(map[string]BarrierPathReport, numPaths),
		Stall:       distOf(stall),
		Cycles:      cycles,
		FlightDumps: dumps,
	}
	for i, name := range pauseNames {
		r.Pauses[name] = distOf(pause[i])
	}
	for k := 0; k < numPhases; k++ {
		r.Phases[PhaseKind(k).String()] = distOf(phase[k])
	}
	for p := 0; p < numPaths; p++ {
		r.Barrier[BarrierPath(p).String()] = BarrierPathReport{
			Hits: hits[p], Sampled: distOf(barrierLat[p]),
		}
	}
	r.MMU = MMUReport{SpanCycles: span, Utilization: utilMin}
	// Keep ladder order stable: iterate the first contributing tracker's
	// window order.
	for _, t := range trackers {
		if t == nil {
			continue
		}
		for _, w := range t.cfg.MMUWindows {
			r.MMU.Windows = append(r.MMU.Windows, MMUPoint{WindowCycles: w, MMU: mmuMin[w]})
		}
		break
	}
	return r
}
