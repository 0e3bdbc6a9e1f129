// Command hcsgc-bench regenerates the tables and figures of "Improving
// Program Locality in the GC using Hotness" (PLDI 2020).
//
// Usage:
//
//	hcsgc-bench -exp fig4                # one experiment, default settings
//	hcsgc-bench -exp all                 # everything (takes a while)
//	hcsgc-bench -exp fig9 -runs 30 -scale 0.06 -configs 0,2,3,4
//	hcsgc-bench -exp fig4 -csv out.csv   # machine-readable output
//	hcsgc-bench -report kv -out kv.json  # KV serving SLO A/B (cfg 3 vs 4)
//	hcsgc-bench -report chaos -runs 20   # fault-injection soak, verifier on
//	hcsgc-bench -list                    # experiments, reports, ablations
//
// Results are printed as text reports following the paper's §4.2 layout.
// A report (-report NAME) prints its text form, writes its JSON to -out,
// and exits non-zero when its validator rejects the result.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id: table1-3, fig4-13, or 'all'; with -report, the workload of the locality, latency and chaos reports")
		runs    = flag.Int("runs", 0, "runs per configuration (0 = experiment or report default)")
		scale   = flag.Float64("scale", 0, "workload scale in (0,1]; 0 = default; 1 = paper scale")
		seed    = flag.Int64("seed", 0, "base seed; run r uses seed+r (0 = experiment or report default)")
		configs = flag.String("configs", "", "comma-separated config ids (default: all 19; with -report, the report's base,test pair or single config)")
		csvPath = flag.String("csv", "", "also write per-config CSV to this file")
		quiet   = flag.Bool("q", false, "suppress progress output")
		list    = flag.Bool("list", false, "list experiment ids, reports and ablations, then exit")
		ablate  = flag.String("ablate", "", "run an ablation sweep instead: "+strings.Join(bench.AblationNames(), ", "))
		telAddr = flag.String("telemetry-addr", "", "serve live telemetry on this address; / lists every endpoint ("+
			strings.Join(telemetry.BuiltinPaths, " ")+" plus each attached plane's JSON snapshot)")

		report       = flag.String("report", "", "run a registered report instead of the timing sweep: "+strings.Join(reportNames(false), ", ")+" (see -list)")
		out          = flag.String("out", "", "write the report's JSON (chaos: text report plus failed runs' gclogs) to this file")
		mutators     = flag.String("sweep-mutators", "", "comma-separated mutator-count ladder for -report scaling (default 1,2,4,8,16,64)")
		benchOut     = flag.String("bench-out", "", "write the report's normalized benchmark artifact (BENCH_<report>.json shape) to this file; reports: "+strings.Join(reportNames(true), ", "))
		benchCompare = flag.String("bench-compare", "", "compare the report's benchmark artifact against this committed baseline; >10% regressions print warnings without failing")
	)
	flag.Parse()

	fail := func(prefix string, err error) {
		fmt.Fprintf(os.Stderr, "hcsgc-bench: %s%v\n", prefix, err)
		os.Exit(1)
	}
	var sink *hcsgc.TelemetrySink
	if *telAddr != "" {
		sink = hcsgc.NewTelemetrySink()
		srv, err := sink.Serve(*telAddr)
		if err != nil {
			fail("telemetry: ", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "hcsgc-bench: telemetry on http://%s (%s; / lists every endpoint)\n",
			srv.Addr(), strings.Join(sink.Paths(), " "))
	}
	progress := bench.Progress(nil)
	if !*quiet {
		progress = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	switch {
	case *list:
		writeList(os.Stdout)
		return
	case *ablate != "":
		res, err := bench.RunAblation(*ablate, *runs, *scale, *seed, progress)
		if err != nil {
			fail("", err)
		}
		bench.WriteAblation(os.Stdout, &res)
		return
	case *report != "":
		opts := bench.ReportOptions{Exp: *exp, Runs: *runs, Scale: *scale, Seed: *seed, Telemetry: sink}
		var err error
		if *configs != "" {
			if opts.Configs, err = parseConfigs(*configs); err != nil {
				fail(*report+": ", err)
			}
		}
		if *mutators != "" {
			if opts.Mutators, err = parseConfigs(*mutators); err != nil {
				fail(*report+": -sweep-mutators: ", err)
			}
		}
		if err := runReport(*report, opts, *out, *benchOut, *benchCompare, progress); err != nil {
			fail("", err)
		}
		return
	case *benchOut != "" || *benchCompare != "" || *out != "" || *mutators != "":
		fmt.Fprintln(os.Stderr, "hcsgc-bench: -out, -bench-out, -bench-compare and -sweep-mutators need -report")
		os.Exit(2)
	case *exp == "":
		fmt.Fprintln(os.Stderr, "hcsgc-bench: -exp or -report is required (see -list)")
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail("", err)
		}
		defer f.Close()
		csvFile = f
	}

	for _, id := range ids {
		if err := runOne(id, *runs, *scale, *seed, *configs, progress, csvFile, sink); err != nil {
			fail(id+": ", err)
		}
	}
}

// writeList enumerates the runnable experiment ids (id first, one-line
// description after), then the registered reports and ablation sweeps.
func writeList(w io.Writer) {
	tableTitles := map[string]string{
		"table1": "ZGC page size classes",
		"table2": "benchmark configuration matrix (Table 2)",
		"table3": "LAW-substitute graph inputs",
	}
	specs := bench.Specs()
	fmt.Fprintln(w, "experiments (-exp):")
	for _, id := range bench.ExperimentIDs() {
		title := tableTitles[id]
		if s, ok := specs[id]; ok {
			title = s.Title
		}
		fmt.Fprintf(w, "  %-8s %s\n", id, title)
	}
	fmt.Fprintln(w, "reports (-report NAME [-out FILE]):")
	for _, r := range bench.Reports() {
		desc := r.Desc
		if r.Artifact != nil {
			desc += " [-bench-out]"
		}
		fmt.Fprintf(w, "  %-8s %s\n", r.Name, desc)
	}
	fmt.Fprintln(w, "ablation sweeps (-ablate):")
	for _, a := range bench.AblationNames() {
		fmt.Fprintf(w, "  ablate:%s\n", a)
	}
}

// reportNames lists the registered reports; with artifactOnly, only those
// that emit a benchmark artifact.
func reportNames(artifactOnly bool) []string {
	var names []string
	for _, r := range bench.Reports() {
		if !artifactOnly || r.Artifact != nil {
			names = append(names, r.Name)
		}
	}
	return names
}

// runReport runs a registered report: the text report goes to stdout, the
// -out file and the benchmark artifact are written, the artifact is
// compared against a baseline, and only then does the validator decide
// the exit status — so a rejected run still leaves its artifacts behind.
func runReport(name string, opts bench.ReportOptions, outPath, benchOut, benchCompare string, progress bench.Progress) error {
	rep, ok := bench.LookupReport(name)
	if !ok {
		return fmt.Errorf("unknown report %q (reports: %s)", name, strings.Join(reportNames(false), ", "))
	}
	if rep.Artifact == nil && (benchOut != "" || benchCompare != "") {
		return fmt.Errorf("-bench-out/-bench-compare: %s report has no benchmark artifact (reports with one: %s)",
			name, strings.Join(reportNames(true), ", "))
	}
	res, err := rep.Run(opts, progress)
	if err != nil {
		return err
	}
	res.WriteText(os.Stdout)
	if outPath != "" {
		if err := writeFile(outPath, func(w io.Writer) error { return bench.WriteOut(w, res) }); err != nil {
			return err
		}
	}
	if rep.Artifact != nil {
		art := rep.Artifact(res)
		if benchOut != "" {
			if err := writeFile(benchOut, func(w io.Writer) error { return bench.WriteArtifact(w, art) }); err != nil {
				return err
			}
		}
		if benchCompare != "" {
			baseline, err := bench.ReadArtifactFile(benchCompare)
			if err != nil {
				return err
			}
			warns := bench.CompareArtifacts(baseline, art, 0.10)
			for _, w := range warns {
				fmt.Fprintf(os.Stderr, "hcsgc-bench: baseline warning: %s\n", w)
			}
			if len(warns) == 0 {
				fmt.Fprintf(os.Stderr, "hcsgc-bench: all metrics within 10%% of baseline %s\n", benchCompare)
			}
		}
	}
	return res.Validate()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOne(id string, runs int, scale float64, seed int64, configs string, progress bench.Progress, csvFile *os.File, sink *hcsgc.TelemetrySink) error {
	switch id {
	case "table1":
		bench.WriteTable1(os.Stdout)
		return nil
	case "table2":
		bench.WriteTable2(os.Stdout)
		return nil
	case "table3":
		s := scale
		if s == 0 {
			s = 0.1
		}
		bench.WriteTable3(os.Stdout, s)
		return nil
	}

	spec, ok := bench.Specs()[id]
	if !ok {
		return fmt.Errorf("unknown experiment (see -list)")
	}
	if runs > 0 {
		spec.Runs = runs
	}
	if scale > 0 {
		spec.Scale = scale
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if configs != "" {
		ids, err := parseConfigs(configs)
		if err != nil {
			return err
		}
		spec.Configs = ids
	}
	spec.Telemetry = sink
	res, err := bench.Run(spec, progress)
	if err != nil {
		return err
	}
	bench.WriteReport(os.Stdout, &res)
	if csvFile != nil {
		bench.WriteCSV(csvFile, &res)
	}
	return nil
}

func parseConfigs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad config id %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
