package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	if s.Recorder() != nil || s.Metrics() != nil {
		t.Error("nil sink must hand out nil components")
	}
	s.SetGCLog(func(io.Writer) {})
	s.Publish("kv", func() any { return nil })
	if got := s.Paths(); len(got) != len(BuiltinPaths) {
		t.Errorf("nil sink index = %v, want the built-in paths", got)
	}
	s.Recorder().Record(EvPageAlloc, 0, 0, 0)
	s.Metrics().Counter("x", "").Inc()
}

func TestSinkEndpoints(t *testing.T) {
	sink := NewSink()
	sink.Metrics().Counter("hcsgc_gc_cycles_total", "Cycles.").Add(2)
	sink.Recorder().BeginSpan(SpanMark, 1)
	sink.Recorder().EndSpan(SpanMark, 1)
	sink.SetGCLog(func(w io.Writer) { io.WriteString(w, "[gc] hello\n") })

	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(metrics, "hcsgc_gc_cycles_total 2") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "hcsgc_telemetry_dropped_events") {
		t.Errorf("/metrics missing loss gauges:\n%s", metrics)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}

	jsonBody, _ := get("/metrics.json")
	var fams []map[string]any
	if err := json.Unmarshal([]byte(jsonBody), &fams); err != nil {
		t.Errorf("/metrics.json does not parse: %v", err)
	}

	traceBody, _ := get("/trace")
	var tf TraceFile
	if err := json.Unmarshal([]byte(traceBody), &tf); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if len(tf.TraceEvents) != 2 || tf.TraceEvents[0].Name != "mark" {
		t.Errorf("unexpected trace events: %+v", tf.TraceEvents)
	}

	gclog, _ := get("/gclog")
	if !strings.Contains(gclog, "[gc] hello") {
		t.Errorf("/gclog = %q", gclog)
	}

	// A never-published name is a 404, not "200 null".
	resp, err := http.Get(srv.URL + "/kv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/kv without a publisher: status %d, want 404", resp.StatusCode)
	}
	sink.Publish("kv", func() any { return map[string]int{"hits": 7} })
	kvBody, kvType := get("/kv")
	var kv map[string]int
	if err := json.Unmarshal([]byte(kvBody), &kv); err != nil || kv["hits"] != 7 {
		t.Errorf("/kv = %q (err %v), want hits 7", kvBody, err)
	}
	if !strings.HasPrefix(kvType, "application/json") {
		t.Errorf("/kv content type %q", kvType)
	}

	index, _ := get("/")
	if !strings.Contains(index, "/kv") {
		t.Errorf("index missing /kv: %q", index)
	}
	if !strings.Contains(index, "/metrics") {
		t.Errorf("index = %q", index)
	}
}

// TestSinkIndex: / lists exactly the built-in paths plus every published
// name, each path it lists answers 200, and a published name serves its
// snapshot as JSON.
func TestSinkIndex(t *testing.T) {
	sink := NewSink()
	sink.Publish("signals", func() any { return []int{1, 2} })
	sink.Publish("contention", func() any { return map[string]string{"top": "heap.mu"} })
	sink.Publish("signals", func() any { return []int{3} }) // latest publisher wins

	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	want := append(append([]string(nil), BuiltinPaths...), "/contention", "/signals")
	_, index := get("/")
	got := strings.Fields(index)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("index = %v, want %v", got, want)
	}
	for _, path := range got {
		if code, _ := get(path); code != http.StatusOK {
			t.Errorf("%s listed in the index but answers %d", path, code)
		}
	}
	if _, body := get("/signals"); strings.Join(strings.Fields(body), "") != "[3]" {
		t.Errorf("/signals = %q, want the latest publisher's [3]", body)
	}
	if code, _ := get("/nonesuch"); code != http.StatusNotFound {
		t.Errorf("/nonesuch status %d, want 404", code)
	}
}

func TestSinkServe(t *testing.T) {
	sink := NewSink()
	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
