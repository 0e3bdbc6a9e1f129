// Command perfbench is the repository's benchmark. It runs one workload
// through workloads.Get(id).Run under GC config 16, checks every run
// against a reference checksum, and prints its metrics as one JSON line.
//
//	perfbench --workload fig4 --seed 1 --seconds 30 --trace 0
//
// --trace 0 repeats the timed run for --seconds and reports the
// end-to-end metrics as medians over the runs. --trace 1 makes one traced
// run and reports the per-layer metrics; it writes its spans, the CPU
// profile and the per-module host split under --out. perfbench/run.sh
// builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"hcsgc/internal/workloads"
)

// A run repeats its set-up setupMinReps to setupMaxReps times, for at
// least setupMinTime; setup_s is the median. One set-up takes from ~1 ms
// (fig4) to ~70 ms (kv), and single set-ups spread widely on a shared
// host, so the median needs many of them.
const (
	setupMinReps = 15
	setupMaxReps = 200
	setupMinTime = time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	out      string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: fig4, graph-mc or kv")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "host seconds to keep starting timed runs")
	fs.IntVar(&trace, "trace", 0, "1 = one traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/trace", "directory for the traced run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	return execute(o, stdout, stderr)
}

// execute runs the benchmark; o.scale > 0 shrinks the workload for tests.
func execute(o options, stdout, stderr io.Writer) int {
	// One P: with two, the mutator and the GC workers contend for the
	// simulated LLC's lock across OS threads, and on a shared 2-vCPU host
	// that made host_run_s spread several times wider between runs.
	runtime.GOMAXPROCS(1)
	// A run makes only 2-3 host GCs at the default GOGC, so its peak
	// memory depended on where they fell: 196-273 MB over six fig4 runs.
	// At 25 it varied by a few percent, with no visible host-time cost.
	debug.SetGCPercent(25)

	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rep report
	if o.trace {
		rep, err = traced(w, o, stderr)
	} else {
		rep, err = timed(w, o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: a run failed the correctness gate")
		return 1
	}
	return 0
}

// tally counts attempted and failed operations: requests on kv, runs
// elsewhere. A run that errors or fails the gate fails all its operations.
type tally struct{ runs, attempted, failed int64 }

func (t *tally) add(w workload, res runResult, ok bool) {
	t.runs++
	ops := int64(1)
	if w.kv && res.err == nil {
		ops = int64(res.res.Ops)
	}
	t.attempted += ops
	switch {
	case res.err != nil || !ok:
		t.failed += ops
	case w.kv:
		t.failed += int64(res.res.Scores["kv-failures"]) // sheds included
	}
}

// timed measures the end-to-end metrics: set-up, then one reference run,
// then config-16 runs until --seconds have passed.
func timed(w workload, o options, stderr io.Writer) (report, error) {
	cfg := w.runConfig(o.seed, o.scale)
	setups, err := w.setupTimes(nil, cfg)
	if err != nil {
		return report{}, err
	}
	ref, err := w.reference(nil, o.seed, o.scale)
	if err != nil {
		return report{}, err
	}
	var host, sim, mem []float64
	var t tally
	start := time.Now()
	for t.runs == 0 || time.Since(start).Seconds() < o.seconds {
		r := w.timedRun(nil, cfg)
		ok := r.err == nil && ref.pass(w, r.res)
		t.add(w, r, ok)
		fmt.Fprintf(stderr, "perfbench: %s run %d: host %.3f s, sim %.6f s, peak %.1f MB, gate ok %v, err %v\n",
			w.name, t.runs, r.host.Seconds(), r.res.ExecSeconds, float64(r.peakMem)/(1<<20), ok, r.err)
		if ok {
			host = append(host, r.host.Seconds())
			sim = append(sim, r.res.ExecSeconds)
			mem = append(mem, float64(r.peakMem)/(1<<20))
		}
	}
	m := map[string]float64{
		"host_run_s":       median(host),
		"setup_s":          median(setups),
		"host_peak_rss_mb": median(mem),
		"sim_exec_s":       median(sim),
	}
	return newReport(t, int64(len(host)) == t.runs, endToEnd, m), nil
}

// newReport gives every metric in the table its value and unit.
func newReport(t tally, correct bool, table []metric, m map[string]float64) report {
	rep := report{Correct: correct, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]value, len(table))}
	for _, mt := range table {
		rep.Metrics[mt.name] = value{m[mt.name], mt.unit}
	}
	return rep
}

type runResult struct {
	res     workloads.Result
	host    time.Duration
	peakMem uint64 // bytes
	err     error
}

// timedRun makes one run after a host GC, so runs start from the same
// host heap, and samples the run's peak resident memory.
func (w workload) timedRun(tr *tracer, cfg workloads.RunConfig) runResult {
	runtime.GC()
	mp := startMemPeak()
	res, host, err := w.run(tr, cfg)
	return runResult{res: res, host: host, peakMem: mp.stop(), err: err}
}

// memPeak samples the Go runtime's resident memory, mapped memory less
// what it has released to the OS, every millisecond the scheduler allows.
// A per-run peak, reported as a median over runs, spreads far less than
// the process's lifetime maximum resident set.
type memPeak struct {
	quit, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	p := &memPeak{quit: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	tick := time.NewTicker(time.Millisecond)
	go func() {
		defer close(p.done)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			p.peak = max(p.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the peak in bytes.
func (p *memPeak) stop() uint64 {
	close(p.quit)
	<-p.done
	return p.peak
}
