// End-to-end tests of the PR 7 observability surface against live
// runtimes: the /signals and /tailattr endpoint payload shapes, the
// flight-recorder re-arm path, and the STW progress watchdog naming the
// mutator that failed to reach the safepoint.
package hcsgc_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/workloads"
)

func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// TestSignalsEndpointShape: a runtime with the default (always-on)
// signal plane serves a well-formed /signals snapshot covering every GC
// cycle, and the hcsgc_signal_* families land in /metrics.
func TestSignalsEndpointShape(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	runTelemetryWorkload(t, sink)

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snap hcsgc.SignalsSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, srv.Addr(), "/signals")), &snap); err != nil {
		t.Fatalf("/signals does not parse: %v", err)
	}
	if snap.Cycles != 2 || len(snap.Records) != 2 {
		t.Fatalf("/signals cycles=%d records=%d, want 2/2", snap.Cycles, len(snap.Records))
	}
	if snap.Latest == nil || snap.Latest.Seq != 2 {
		t.Fatalf("/signals latest = %+v, want seq 2", snap.Latest)
	}
	for i, rec := range snap.Records {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d (oldest first)", i, rec.Seq, i+1)
		}
		if rec.VEnd <= rec.VStart {
			t.Errorf("cycle %d: VStart %d VEnd %d not ordered", rec.Seq, rec.VStart, rec.VEnd)
		}
		if rec.Flight.Seq != rec.Seq {
			t.Errorf("cycle %d: flight record seq %d diverges", rec.Seq, rec.Flight.Seq)
		}
		if rec.Heap.MarkedBytes == 0 {
			t.Errorf("cycle %d: marked bytes 0 on a live heap", rec.Seq)
		}
		if len(rec.Derived) == 0 {
			t.Errorf("cycle %d: no derived signals", rec.Seq)
		}
		derived := map[string]bool{}
		for _, d := range rec.Derived {
			derived[d.Name] = true
		}
		for _, name := range []string{"utilization", "max_pause_cycles", "heap_used_pct", "cold_frac"} {
			if !derived[name] {
				t.Errorf("cycle %d: derived signal %q missing (have %v)", rec.Seq, name, rec.Derived)
			}
		}
	}

	metrics := httpGet(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		`hcsgc_signal_value{signal="utilization"}`,
		`hcsgc_signal_ewma{signal="heap_used_pct"}`,
		`hcsgc_signal_trend{signal="max_pause_cycles"}`,
		`hcsgc_signal_flags_total{flag="stall_spike"}`,
		"hcsgc_signal_cycles_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Without a serving workload nothing publishes the tail endpoint.
	resp, err := http.Get("http://" + srv.Addr() + "/tailattr")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/tailattr without an attributor: status %d, want 404", resp.StatusCode)
	}
}

// TestSignalsDisabled: DisableSignals leaves the runtime without a plane
// and the workload still runs.
func TestSignalsDisabled(t *testing.T) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    8 << 20,
		DisableMemModel: true,
		DisableSignals:  true,
	})
	defer rt.Close()
	if rt.Signals != nil {
		t.Fatal("DisableSignals left a live plane")
	}
	m := rt.NewMutator(1)
	defer m.Close()
	obj := rt.Types.Register("signals.off", 2, nil)
	m.SetRoot(0, m.Alloc(obj))
	m.RequestGC()
}

// TestTailAttrEndpointShape: the KV workload with an attributor attached
// serves a well-formed /tailattr report whose violations carry causes.
func TestTailAttrEndpointShape(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	// At tiny scale the GC never disrupts serving, so violations against
	// a micro SLO are service-caused — the endpoint shape is what is
	// under test here; cause coverage is TestClassifierCauses and the
	// full-scale A/B.
	ta := hcsgc.NewTailAttributor(hcsgc.TailConfig{SLOThresholdCycles: 500})
	w, err := workloads.Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(workloads.RunConfig{
		Knobs:     bench.KnobsFor(4),
		Seed:      1,
		Scale:     0.01,
		Tail:      ta,
		Telemetry: sink,
	}); err != nil {
		t.Fatal(err)
	}

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var rep hcsgc.TailReport
	if err := json.Unmarshal([]byte(httpGet(t, srv.Addr(), "/tailattr")), &rep); err != nil {
		t.Fatalf("/tailattr does not parse: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("/tailattr report invalid: %v", err)
	}
	if rep.Requests == 0 || rep.Violations == 0 {
		t.Fatalf("requests=%d violations=%d, want both > 0", rep.Requests, rep.Violations)
	}
	if len(rep.TopK) == 0 {
		t.Fatal("no exemplars retained")
	}

	metrics := httpGet(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		"hcsgc_tail_requests_total",
		`hcsgc_tail_violations_total{cause="service"}`,
		`hcsgc_tail_cause_cycles{cause="alloc-stall",quantile="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFlightRecorderRearm: after the 8-dump cap exhausts, the
// /flightrecorder?rearm=1 endpoint restores the budget and the
// dumps-remaining gauge tracks both directions.
func TestFlightRecorderRearm(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	tracker := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard})
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    8 << 20,
		DisableMemModel: true,
		Telemetry:       sink,
		Latency:         tracker,
	})
	defer rt.Close()

	gauge := sink.Metrics().Gauge("hcsgc_flight_dumps_remaining", "")
	if v := gauge.Value(); v != 8 {
		t.Fatalf("initial dumps-remaining gauge = %v, want 8", v)
	}
	for i := 0; i < 12; i++ { // past the cap: the excess must be dropped
		tracker.AutoDump("test exhaustion")
	}
	if left := tracker.DumpsRemaining(); left != 0 {
		t.Fatalf("DumpsRemaining after exhaustion = %d, want 0", left)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("dumps-remaining gauge after exhaustion = %v, want 0", v)
	}

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpGet(t, srv.Addr(), "/flightrecorder?rearm=1")

	if left := tracker.DumpsRemaining(); left != 8 {
		t.Fatalf("DumpsRemaining after rearm = %d, want 8", left)
	}
	if v := gauge.Value(); v != 8 {
		t.Fatalf("dumps-remaining gauge after rearm = %v, want 8", v)
	}
	// The re-armed budget accepts dumps again.
	tracker.AutoDump("post-rearm")
	if left := tracker.DumpsRemaining(); left != 7 {
		t.Fatalf("DumpsRemaining after post-rearm dump = %d, want 7", left)
	}
}

// lockedBuf is a goroutine-safe dump sink: the watchdog writes from its
// timer goroutine while the test polls.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSTWWatchdogNamesStuckMutator forces the fault the watchdog exists
// for: an attached mutator that neither polls safepoints nor declares
// itself blocked, freezing every stop-the-world. The injected fault is
// the stuck mutator itself (the fault injector's Delay yields virtual
// time, which a non-polling mutator never consumes, so it cannot force
// this condition); the watchdog must fire on the wall clock — virtual
// time is frozen by exactly the fault being diagnosed — and the
// flight-recorder dump must name the stuck mutator.
func TestSTWWatchdogNamesStuckMutator(t *testing.T) {
	buf := &lockedBuf{}
	tracker := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: buf})
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    8 << 20,
		DisableMemModel: true,
		Latency:         tracker,
		STWWatchdog:     25 * time.Millisecond,
	})
	defer rt.Close()

	stuck := rt.NewMutator(0)
	stuck.SetName("sleepy-mutator")
	helper := rt.NewMutator(0)
	releaseHelper := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		helper.Blocked(func() { <-releaseHelper })
	}()

	done := make(chan struct{})
	go func() {
		rt.Collector.Collect("watchdog-test")
		close(done)
	}()

	deadline := time.After(10 * time.Second)
	for rt.Collector.WatchdogReports() == 0 {
		select {
		case <-deadline:
			t.Fatal("watchdog never fired while a mutator ignored the safepoint")
		case <-time.After(5 * time.Millisecond):
		}
	}
	dump := buf.String()
	if !strings.Contains(dump, "stw watchdog") {
		t.Fatalf("dump missing watchdog reason:\n%s", dump)
	}
	if !strings.Contains(dump, "sleepy-mutator") {
		t.Fatalf("dump does not name the stuck mutator:\n%s", dump)
	}

	// Unstick the world: the sleeper declares itself blocked, which
	// counts as stopped for this pause and every later one in the cycle.
	wg.Add(1)
	releaseStuck := make(chan struct{})
	go func() {
		defer wg.Done()
		stuck.Blocked(func() { <-releaseStuck })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cycle did not complete after the stuck mutator blocked")
	}
	close(releaseStuck)
	close(releaseHelper)
	wg.Wait()
	stuck.Close()
	helper.Close()
}
