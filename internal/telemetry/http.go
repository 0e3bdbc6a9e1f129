package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Sink bundles the live observability surface of one runtime (or a
// sequence of runtimes sharing it): the event recorder, the metrics
// registry, and an optional GC-log renderer. A nil *Sink is the disabled
// state — its accessors return nil, and nil recorders/metrics are no-ops.
type Sink struct {
	rec *Recorder
	reg *Registry

	mu          sync.Mutex
	gclog       func(io.Writer)
	flight      func(io.Writer) error
	flightRearm func()
	published   map[string]func() any

	// dropped mirrors the recorder's loss counters into the registry at
	// scrape time so exporters can alert on telemetry loss.
	droppedEvents     *Gauge
	overwrittenEvents *Gauge
}

// NewSink builds a sink with default recorder sizing.
func NewSink() *Sink {
	reg := NewRegistry()
	return &Sink{
		rec: NewRecorder(0, 0),
		reg: reg,
		droppedEvents: reg.Gauge("hcsgc_telemetry_dropped_events",
			"Events lost to recorder shard contention."),
		overwrittenEvents: reg.Gauge("hcsgc_telemetry_overwritten_events",
			"Events lost to ring-buffer wrap-around."),
	}
}

// Recorder returns the event recorder (nil on a nil sink).
func (s *Sink) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Metrics returns the metrics registry (nil on a nil sink).
func (s *Sink) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SetGCLog installs the renderer behind the /gclog endpoint (typically
// Collector.WriteGCLog). Nil-safe; the latest runtime wins when several
// share the sink.
func (s *Sink) SetGCLog(fn func(io.Writer)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gclog = fn
	s.mu.Unlock()
}

// WriteGCLog renders the installed GC log to w, outside any HTTP request.
// The chaos soak uses it to capture a failing run's log as an artifact.
// A sink without an installed renderer writes nothing.
func (s *Sink) WriteGCLog(w io.Writer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	fn := s.gclog
	s.mu.Unlock()
	if fn != nil {
		fn(w)
	}
}

// Publish serves fn's result as indented JSON on /name (typically a
// closure over a plane's Report or Snapshot). The index at / lists every
// published name next to the built-in endpoints. Nil-safe; the latest
// publisher of a name wins when several runtimes share the sink.
func (s *Sink) Publish(name string, fn func() any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.published == nil {
		s.published = map[string]func() any{}
	}
	s.published[name] = fn
	s.mu.Unlock()
}

// SetFlightRecorder installs the dump renderer behind the /flightrecorder
// endpoint (typically a closure over latency.Tracker.WriteFlight) and the
// dump-budget reset behind its ?rearm=1 parameter (typically
// latency.Tracker.Rearm). Nil-safe; the latest runtime wins.
func (s *Sink) SetFlightRecorder(dump func(io.Writer) error, rearm func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.flight, s.flightRearm = dump, rearm
	s.mu.Unlock()
}

// WriteFlightRecorder renders the installed flight-recorder dump to w,
// outside any HTTP request (the chaos soak captures failing runs with it).
// A sink without an installed renderer writes nothing.
func (s *Sink) WriteFlightRecorder(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	fn := s.flight
	s.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(w)
}

// BuiltinPaths are the endpoints every sink serves with its own handler:
// Prometheus text, the JSON metrics snapshot, the Chrome trace, the
// ZGC-style GC log, and the latency flight-recorder dump (?rearm=1 resets
// its auto-dump budget).
var BuiltinPaths = []string{"/metrics", "/metrics.json", "/trace", "/gclog", "/flightrecorder"}

// Paths is the endpoint index: the built-in paths, then every published
// name in sorted order. The / endpoint serves it one path per line.
func (s *Sink) Paths() []string {
	paths := append([]string(nil), BuiltinPaths...)
	if s == nil {
		return paths
	}
	s.mu.Lock()
	var names []string
	for name := range s.published {
		names = append(names, "/"+name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return append(paths, names...)
}

// Handler returns the HTTP mux serving the built-in endpoints, each
// published JSON snapshot on /name, and the index at /. A name nobody
// published is a 404.
func (s *Sink) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.syncLossGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		s.syncLossGauges()
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteTrace(w, s.rec.Snapshot())
	})
	mux.HandleFunc("/gclog", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		fn := s.gclog
		s.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if fn == nil {
			fmt.Fprintln(w, "no collector attached")
			return
		}
		fn(w)
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		fn := s.flight
		rearm := s.flightRearm
		s.mu.Unlock()
		if r.URL.Query().Get("rearm") == "1" && rearm != nil {
			rearm()
		}
		w.Header().Set("Content-Type", "application/json")
		if fn == nil {
			io.WriteString(w, "null\n")
			return
		}
		fn(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, strings.Join(s.Paths(), "\n"))
			return
		}
		s.mu.Lock()
		fn := s.published[strings.TrimPrefix(r.URL.Path, "/")]
		s.mu.Unlock()
		if fn == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(fn())
	})
	return mux
}

func (s *Sink) syncLossGauges() {
	s.droppedEvents.Set(float64(s.rec.Dropped()))
	s.overwrittenEvents.Set(float64(s.rec.Overwritten()))
}

// Server is a running telemetry HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts an HTTP server for the sink on addr (e.g. ":9090" or
// "127.0.0.1:0") and returns once the listener is bound; requests are
// handled on a background goroutine.
func (s *Sink) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
