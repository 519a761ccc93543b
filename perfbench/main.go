// Command perfbench is the repository benchmark. It runs one workload
// through the public APIs a user calls — sweep.LoadSpec, sweep.Run and
// export.WriteSweepCSV for the simulator, service.New, Start and
// service.Client for the daemon — for a fixed measurement window,
// checks that every output is correct, and prints one JSON result as
// the last line of standard output:
//
//	perfbench --workload metro|city|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run replays the same work with spans at
// every layer boundary, takes a CPU profile, and reports the per-layer
// metrics instead. BENCHMARK.json at the repository root lists both
// sets; design.json beside this file records which end-to-end metric
// each layer metric should move, and on which workload. run.sh builds
// the command from source and runs it from the repository root.
//
// Any correctness mismatch is counted as a failed operation and makes
// the command exit 1 after printing its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one reported metric. The two tables below are
// the only source of the names the command prints; a test holds them
// equal to BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"allocs_per_job", "count", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"done_ms_p50", "ms", "lower"},
	{"hit_ms_p50", "ms", "lower"},
	{"serve_cells_per_s", "1/s", "higher"},
}

var perLayerDefs = []metricDef{
	{"pbs.self_s", "s", "lower"},
	{"pbs.starts", "count", "higher"},
	{"pbs.ends", "count", "higher"},
	{"pbs.requeues", "count", "lower"},
	{"winhpc.self_s", "s", "lower"},
	{"winhpc.starts", "count", "higher"},
	{"winhpc.ends", "count", "higher"},
	{"winhpc.requeues", "count", "lower"},
	{"simtime.events", "count", "lower"},
	{"simtime.pending_after_schedule", "count", "lower"},
	{"simtime.drain_s", "s", "lower"},
	{"simtime.self_s", "s", "lower"},
	{"simtime.ns_per_event", "ns", "lower"},
	{"cluster.new_s", "s", "lower"},
	{"cluster.schedule_trace_s", "s", "lower"},
	{"cluster.submit_failures", "count", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"workload.build_s", "s", "lower"},
	{"workload.jobs", "count", "higher"},
	{"metrics.hook_calls", "count", "lower"},
	{"metrics.hook_s", "s", "lower"},
	{"metrics.summarise_s", "s", "lower"},
	{"metrics.self_s", "s", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.allocs", "count", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.self_s", "s", "lower"},
	{"controller.cycles", "count", "lower"},
	{"controller.decisions", "count", "lower"},
	{"controller.switches", "count", "lower"},
	{"controller.switch_failures", "count", "lower"},
	{"controller.self_s", "s", "lower"},
	{"sweep.cells", "count", "higher"},
	{"sweep.cell_s_p50", "s", "lower"},
	{"sweep.cell_s_max", "s", "lower"},
	{"sweep.worker_idle_frac", "ratio", "lower"},
	{"export.csv_s", "s", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.queue_ms_p50", "ms", "lower"},
	{"service.run_ms_p50", "ms", "lower"},
	{"service.result_ms_p50", "ms", "lower"},
	{"service.hit_submit_ms_p50", "ms", "lower"},
	{"service.direct_s", "s", "lower"},
	{"service.overhead_ratio", "ratio", "lower"},
	{"service.cache_hits", "count", "higher"},
	{"trace.overhead_s", "s", "lower"},
}

// config is one invocation's settings.
type config struct {
	// seed is the workload seed; negative keeps the committed spec's.
	seed   int64
	window time.Duration
	trace  bool
	// workers bounds sweep workers and daemon clients alike.
	workers int
	// outDir receives profiles, spans and the daemon's state.
	outDir string
}

// report is what a workload measured.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	// mismatches describe failed correctness checks.
	mismatches []string
	// notes are human-readable lines printed before the result.
	notes []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check counts one checked operation and records err as a failure.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.mismatches = append(r.mismatches, err.Error())
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"metro": runMetro,
	"city":  runCity,
	"serve": runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: metro | city | serve")
	seed := fs.Int64("seed", -1, "workload seed (negative: the committed spec's seed)")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload metro|city|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: min(2, runtime.NumCPU()),
		outDir:  filepath.Join(".bench_build", "out"),
	}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	line, err := resultLine(rep, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintln(stdout, "MISMATCH:", m)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", d.Name, rep.values[d.Name], d.Unit)
	}
	fmt.Fprintf(stdout, "%-32s %14.6g ratio (%d failed / %d attempted)\n", "error_rate",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	fmt.Fprintln(stdout, line)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object. Every declared metric must
// have been measured and nothing undeclared may have been.
func resultLine(rep *report, defs []metricDef) (string, error) {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
	}
	var unknown []string
	for name := range rep.values {
		if !declared[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		return "", fmt.Errorf("undeclared metrics %v", unknown)
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	return string(b), err
}
