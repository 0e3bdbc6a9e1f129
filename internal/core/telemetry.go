package core

import (
	"fmt"
	"strings"
	"time"

	"hcsgc/internal/telemetry"
)

// colTelemetry holds the collector's pre-resolved telemetry handles.
// When telemetry is disabled every handle is nil and `enabled` is false:
// each instrumentation site then costs one predictable branch (the nil
// check inside the telemetry method, or the `enabled` guard for sites
// that would otherwise do real work like reading the wall clock).
type colTelemetry struct {
	enabled bool
	rec     *telemetry.Recorder

	cycles *telemetry.Counter
	// Pause-cost distributions (hcsgc_pause_cycles) live in the latency
	// tracker as HDR-backed summaries, not here.
	// relocObjects/relocBytes are indexed by telemetry.RelocByGC/Mutator.
	relocObjects [2]*telemetry.Counter
	relocBytes   [2]*telemetry.Counter

	hotmapDensity   *telemetry.Gauge
	markedBytes     *telemetry.Gauge
	heapUsedPercent *telemetry.Gauge

	ecPages         [2]*telemetry.Counter // small-ish, medium
	pagesFreedEmpty *telemetry.Counter
	barrierSlow     *telemetry.Counter
	allocStalls     *telemetry.Counter
	safepointWaitNS *telemetry.Histogram
}

// Trace tracks: the collector's cycle goroutine emits on track 1; GC
// workers emit their relocation-drain spans on 2+workerID.
const collectorTID = 1

// relocSampleMask downsamples EvRelocWin trace instants to 1 in
// (mask+1): per-object events at relocation rates would otherwise evict
// every phase span from the ring. Counters remain exact.
const relocSampleMask = 1023

// Safepoint-wait histogram buckets, in wall nanoseconds: 1µs .. ~2s.
var safepointWaitBuckets = telemetry.ExpBuckets(1e3, 8, 8)

// newColTelemetry resolves all collector metrics against the sink's
// registry. Every series is registered eagerly so exporters expose the
// full schema (at zero) from the first scrape.
func newColTelemetry(sink *telemetry.Sink) colTelemetry {
	if sink == nil {
		return colTelemetry{}
	}
	reg := sink.Metrics()
	t := colTelemetry{enabled: true, rec: sink.Recorder()}
	t.cycles = reg.Counter("hcsgc_gc_cycles_total", "Completed GC cycles.")
	t.relocObjects[telemetry.RelocByGC] = reg.Counter("hcsgc_reloc_objects_total",
		"Objects relocated, by relocation-race winner.", "who", "gc")
	t.relocObjects[telemetry.RelocByMutator] = reg.Counter("hcsgc_reloc_objects_total",
		"Objects relocated, by relocation-race winner.", "who", "mutator")
	t.relocBytes[telemetry.RelocByGC] = reg.Counter("hcsgc_reloc_bytes_total",
		"Bytes relocated, by relocation-race winner.", "who", "gc")
	t.relocBytes[telemetry.RelocByMutator] = reg.Counter("hcsgc_reloc_bytes_total",
		"Bytes relocated, by relocation-race winner.", "who", "mutator")
	t.hotmapDensity = reg.Gauge("hcsgc_page_hotmap_density",
		"Hot bytes over live bytes across hot-trackable pages at mark end.")
	t.markedBytes = reg.Gauge("hcsgc_marked_bytes",
		"Live bytes found by the latest mark.")
	t.heapUsedPercent = reg.Gauge("hcsgc_heap_used_percent",
		"Committed heap occupancy after the latest cycle.")
	t.ecPages[0] = reg.Counter("hcsgc_ec_pages_total",
		"Pages selected as evacuation candidates.", "class", "small")
	t.ecPages[1] = reg.Counter("hcsgc_ec_pages_total",
		"Pages selected as evacuation candidates.", "class", "medium")
	t.pagesFreedEmpty = reg.Counter("hcsgc_pages_freed_empty_total",
		"Pages reclaimed without relocation.")
	t.barrierSlow = reg.Counter("hcsgc_barrier_slow_total",
		"Load-barrier slow-path entries.")
	t.allocStalls = reg.Counter("hcsgc_alloc_stalls_total",
		"Allocation stalls waiting for a GC cycle.")
	t.safepointWaitNS = reg.Histogram("hcsgc_safepoint_wait_ns",
		"Wall-clock stop-the-world handshake latency in nanoseconds.",
		safepointWaitBuckets)
	return t
}

// stopTheWorldTimed runs the STW handshake, recording the wall-clock
// wait until quorum as a safepoint-wait sample attributed to pause. The
// STW progress watchdog is armed here: if the handshake overruns
// Config.STWWatchdog, a flight-recorder dump names the mutators not at
// the safepoint (the pause keeps waiting — the watchdog diagnoses the
// hang, it does not abort it). Wall-clock deliberately: the sample
// measures how long real mutator threads took to park, which is exactly
// the quantity virtual time abstracts away.
//
//hcsgc:wall-clock
func (c *Collector) stopTheWorldTimed(pause telemetry.SpanID) {
	onStall := c.stwWatchdogReport(pause)
	if !c.tm.enabled {
		c.sp.stopTheWorld(c.cfg.STWWatchdog, onStall)
		return
	}
	start := time.Now()
	c.sp.stopTheWorld(c.cfg.STWWatchdog, onStall)
	wait := uint64(time.Since(start).Nanoseconds())
	c.tm.rec.Record(telemetry.EvSafepointWait, 0, wait, uint64(pause))
	c.tm.safepointWaitNS.Observe(float64(wait))
}

// stwWatchdogReport builds the watchdog's overrun callback: it emits a
// flight-recorder dump naming the mutators still running, which turns
// the "attached mutator idles without Blocked() and deadlocks every STW"
// gotcha from a silent hang into a diagnosable report.
func (c *Collector) stwWatchdogReport(pause telemetry.SpanID) func(stuck []string, registered, stopped int) {
	if c.cfg.STWWatchdog <= 0 {
		return nil
	}
	return func(stuck []string, registered, stopped int) {
		c.watchdogFired.Add(1)
		c.lat.AutoDump(fmt.Sprintf(
			"stw watchdog: pause %s exceeded %v with %d/%d mutators stopped; not at safepoint: %s",
			pause, c.cfg.STWWatchdog, stopped, registered, strings.Join(stuck, ", ")))
	}
}

// WatchdogReports returns the number of STW watchdog overrun reports.
func (c *Collector) WatchdogReports() uint64 {
	return c.watchdogFired.Load()
}

// recordMarkEnd measures the heap at mark end, inside STW2 while the page
// set is frozen and the hotmap is fresh, in one walk over the
// hot-trackable pages subject to this mark: the segregation purity (for
// the locality profiler and the flight record) and, with hotness on, the
// hotmap density (the signal plane derives cold_frac from it). With
// hotness off no hotmap is recorded, so the density keeps its -1
// "unmeasured" sentinel.
//
//hcsgc:stw-only
func (c *Collector) recordMarkEnd(cs *CycleStats) {
	seg := c.heap.SegregationStats(c.startSeq.Load())
	cs.SegregationPurity = seg.Purity()
	cs.SegregatedPages = seg.Pages
	density := 0.0
	if c.cfg.Knobs.Hotness && seg.LiveBytes > 0 {
		density = float64(seg.HotBytes) / float64(seg.LiveBytes)
		cs.HotmapDensity = density
	}
	c.tm.hotmapDensity.Set(density)
	c.tm.markedBytes.Set(float64(cs.MarkedBytes))
}

// recordCycleEnd publishes per-cycle counters after stats are appended.
func (c *Collector) recordCycleEnd(cs *CycleStats) {
	if !c.tm.enabled {
		return
	}
	c.tm.cycles.Inc()
	c.tm.ecPages[0].Add(uint64(cs.ECSmall))
	c.tm.ecPages[1].Add(uint64(cs.ECMedium))
	c.tm.pagesFreedEmpty.Add(uint64(cs.PagesFreedEmpty))
	c.tm.heapUsedPercent.Set(cs.HeapUsedAfter)
}
