package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/sweep"
)

// The simulator workloads run a committed spec document through
// sweep.Run and export.WriteSweepCSV, one sweep at a time, as the
// qsim sweep command does.
//
//   - metro replays specs/e17_metro_scale.json, whose CSV at the
//     spec's own seed must equal specs/golden/e17_metro_scale.csv.
//   - city replays specs/city.json beside this file: the E18 city tier
//     over a 100 h submission window.

func runMetro(cfg config) (*report, error) {
	return runSim(cfg, "metro", "specs/e17_metro_scale.json", "specs/golden/e17_metro_scale.csv")
}

func runCity(cfg config) (*report, error) {
	return runSim(cfg, "city", "perfbench/specs/city.json", "")
}

const (
	// setupReps repeats set-up so setup_s is a median taken after the
	// CPU has left any idle state, not one cold sample.
	setupReps = 1001
	// rereadBatches batches of rereadBatch re-exports of a finished
	// sweep follow each run: the direct-API counterpart of the daemon's
	// cached read. One re-export of a small grid takes microseconds, so
	// a sample is a batch's time per re-export.
	rereadBatches = 250
	rereadBatch   = 32
	// calibSetupEvery spaces the calibrations among set-up repetitions.
	calibSetupEvery = 100 * time.Millisecond
	// Calibrations take calibShort kernel runs where they come often
	// and calibLong between sweep runs, which come seconds apart.
	calibShort = 5
	calibLong  = 100
)

// loadGrid is the workload's set-up: read and parse the spec document,
// apply the seed, expand the grid. It reports whether the grid runs at
// the document's own seed.
func loadGrid(path string, seed int64) (sweep.Grid, []sweep.Cell, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return sweep.Grid{}, nil, false, err
	}
	defer f.Close()
	sp, err := sweep.LoadSpec(f)
	if err != nil {
		return sweep.Grid{}, nil, false, fmt.Errorf("%s: %w", path, err)
	}
	g := sp.Grid
	own := seed < 0 || seed == g.BaseSeed
	if seed >= 0 {
		g.BaseSeed = seed
	}
	return g, g.Expand(), own, nil
}

// setupGrid runs loadGrid setupReps times, each timed into m's
// "setup" series.
func setupGrid(m *meter, path string, seed int64) (sweep.Grid, []sweep.Cell, bool, error) {
	var (
		g     sweep.Grid
		cells []sweep.Cell
		own   bool
		err   error
	)
	m.calibrate(calibShort)
	for i := 0; i < setupReps; i++ {
		m.calibrateEvery(calibSetupEvery, calibShort)
		t0 := now()
		g, cells, own, err = loadGrid(path, seed)
		m.record("setup", since(t0).Seconds())
		if err != nil {
			return g, nil, false, err
		}
	}
	m.calibrate(calibShort)
	return g, cells, own, nil
}

// sweepCSV runs the grid untraced and renders its CSV.
func sweepCSV(g sweep.Grid, workers int) (*sweep.Outcome, []byte, error) {
	out, err := sweep.Run(sweep.Config{Grid: g, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	if err := export.WriteSweepCSV(&b, out.Rows()); err != nil {
		return nil, nil, err
	}
	return out, b.Bytes(), nil
}

// checkOutcome counts each cell of a finished sweep as one operation:
// it fails when the cell errored or its jobs do not balance.
func checkOutcome(rep *report, out *sweep.Outcome, jobs []int) {
	for i, r := range out.Results {
		err := r.Err
		if err == nil {
			submitted, completed := jobTotals(r.Res.Summary)
			err = checkBalance(r.Cell.Name(), r.Res.Summary, jobs[i], submitted-completed)
		}
		rep.check(err)
	}
}

// checkCSV fails unless got equals want byte for byte.
func checkCSV(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: CSV differs (%d bytes, want %d)", what, len(got), len(want))
}

func runSim(cfg config, name, specPath, goldenPath string) (*report, error) {
	rep := newReport()
	m, err := newMeter()
	if err != nil {
		return nil, err
	}
	g, cells, own, err := setupGrid(m, specPath, cfg.seed)
	if err != nil {
		return nil, err
	}
	var golden []byte
	if own && goldenPath != "" {
		if golden, err = os.ReadFile(goldenPath); err != nil {
			return nil, err
		}
	}
	jobs, err := traceJobs(cells)
	if err != nil {
		return nil, err
	}
	totalJobs := 0
	for _, n := range jobs {
		totalJobs += n
	}
	rep.notef("workload: %s, seed %d, %d cells, %d trace jobs, %d workers", specPath, g.BaseSeed, len(cells), totalJobs, cfg.workers)
	if cfg.trace {
		return traceSim(cfg, rep, name, g, cells, jobs, golden)
	}

	heap := startHeapSampler()
	defer heap.close()
	var (
		peaks   []float64
		events  uint64
		mallocs uint64
		runs    int
		first   []byte
	)
	runtime.GC()
	m.calibrate(calibLong)
	deadline := now().Add(cfg.window)
	for runs == 0 || now().Before(deadline) {
		heap.reset()
		before := readRuntime()
		t0 := now()
		out, csv, err := sweepCSV(g, cfg.workers)
		wall := since(t0).Seconds()
		used := readRuntime().sub(before)
		peaks = append(peaks, heap.peakMB())
		if err != nil {
			return nil, err
		}
		m.record("wall", wall)
		runs++
		mallocs += used.mallocs
		for _, r := range out.Results {
			events += r.Res.EventsRun
		}
		checkOutcome(rep, out, jobs)
		switch {
		case first == nil && golden != nil:
			rep.check(checkCSV("CSV against "+goldenPath, csv, golden))
		case first != nil:
			rep.check(checkCSV("CSV against the first run's", csv, first))
		}
		if first == nil {
			first = csv
		}
		runtime.GC()
		m.calibrate(calibLong)
		var bufs [rereadBatch]bytes.Buffer
		for i := -rereadBatches / 10; i < rereadBatches; i++ {
			var errs [rereadBatch]error
			t0 := now()
			for k := range bufs {
				bufs[k].Reset()
				errs[k] = export.WriteSweepCSV(&bufs[k], out.Rows())
			}
			if i >= 0 { // the first tenth warms caches, unmeasured
				m.record("hit", since(t0).Seconds()/rereadBatch)
			}
			for k, err := range errs {
				if err == nil {
					err = checkCSV("re-exported CSV", bufs[k].Bytes(), csv)
				}
				rep.check(err)
			}
		}
		runtime.GC()
		m.calibrate(calibLong)
	}
	walls, hits := m.scaled("wall"), scale(m.scaled("hit"), 1e3)
	busy := sum(walls)
	rep.values["setup_s"] = median(m.scaled("setup"))
	rep.values["wall_s"] = median(walls)
	rep.values["events_per_s"] = float64(events) / busy
	rep.values["allocs_per_job"] = float64(mallocs) / float64(totalJobs*runs)
	rep.values["peak_heap_mb"] = median(peaks)
	rep.values["done_ms_p50"] = quantile(walls, 0.5) * 1e3
	rep.values["hit_ms_p50"] = quantile(hits, 0.5)
	rep.values["serve_cells_per_s"] = float64(len(cells)*runs) / busy
	rep.notef("samples: %d sweep runs (done_ms), %d batches of %d re-exports (hit_ms); golden compared: %v", runs, len(hits), rereadBatch, golden != nil)
	noteTails(rep, scale(walls, 1e3), hits)
	if err := m.dump(filepath.Join(cfg.outDir, fmt.Sprintf("meter-%s-seed%d.json", name, g.BaseSeed))); err != nil {
		return nil, err
	}
	noteSpeed(rep, m, "wall", "setup")
	return rep, nil
}

// traceSim is the traced run: one untraced sweep.Run as the reference,
// then traced replays for the window under a CPU profile. Every replay
// must match the reference cell for cell.
func traceSim(cfg config, rep *report, name string, g sweep.Grid, cells []sweep.Cell, jobs []int, golden []byte) (*report, error) {
	t0 := now()
	ref, refCSV, err := sweepCSV(g, cfg.workers)
	untraced := since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	checkOutcome(rep, ref, jobs)
	if golden != nil {
		rep.check(checkCSV("reference CSV against the golden", refCSV, golden))
	}

	tr := newTracer()
	var (
		walls, gcCPU, allocs, allocMB []float64
		last                          counts
	)
	prof, err := startProfile(cfg.outDir, "cpu-"+name+".pprof")
	if err != nil {
		return nil, err
	}
	deadline := now().Add(cfg.window)
	for op := 1; op == 1 || now().Before(deadline); op++ {
		runtime.GC()
		before := readRuntime()
		t0 := now()
		got, per, err := replaySweep(tr, op, g, cfg.workers)
		if err != nil {
			prof.stop()
			return nil, err
		}
		sp := tr.begin(op, 0, "export.csv", "")
		var b bytes.Buffer
		err = export.WriteSweepCSV(&b, got.Rows())
		tr.end(sp)
		walls = append(walls, since(t0).Seconds())
		used := readRuntime().sub(before)
		gcCPU = append(gcCPU, used.gcCPU)
		allocs = append(allocs, float64(used.mallocs))
		allocMB = append(allocMB, float64(used.allocBytes)/(1<<20))
		if err == nil {
			err = checkCSV("replayed CSV", b.Bytes(), refCSV)
		}
		rep.check(err)
		rep.check(checkReplay(ref, got))
		last = counts{}
		for i, n := range per {
			rep.check(checkBalance(got.Results[i].Cell.Name(), got.Results[i].Res.Summary, jobs[i], n.unfinished))
			last.add(n)
		}
	}
	self, err := prof.layers()
	if err != nil {
		return nil, err
	}
	ops := float64(len(walls))
	setCounts(rep, last, 1)
	rep.values["simtime.drain_s"] = tr.medianOp("simtime.drain", sum)
	rep.values["simtime.ns_per_event"] = rep.values["simtime.drain_s"] * 1e9 / float64(last.events)
	rep.values["cluster.new_s"] = tr.medianOp("cluster.new", sum)
	rep.values["cluster.schedule_trace_s"] = tr.medianOp("cluster.schedule_trace", sum)
	rep.values["workload.build_s"] = tr.medianOp("workload.build", sum)
	rep.values["metrics.summarise_s"] = tr.medianOp("metrics.summarise", sum)
	rep.values["runtime.gc_cpu_s"] = median(gcCPU)
	rep.values["runtime.allocs"] = median(allocs)
	rep.values["runtime.alloc_mb"] = median(allocMB)
	rep.values["sweep.cells"] = float64(len(cells))
	rep.values["sweep.cell_s_p50"] = median(tr.durations("sweep.cell"))
	rep.values["sweep.cell_s_max"] = tr.medianOp("sweep.cell", maxOf)
	rep.values["sweep.worker_idle_frac"] = idleFrac(tr, cfg.workers)
	rep.values["export.csv_s"] = tr.medianOp("export.csv", sum)
	rep.values["trace.overhead_s"] = median(walls) - untraced
	for _, d := range perLayerDefs {
		if strings.HasPrefix(d.Name, "service.") {
			rep.values[d.Name] = 0 // no daemon on this workload
		}
	}
	setSelf(rep, self, ops)
	rep.notef("traced: %d replays, untraced reference %.3fs, median traced %.3fs", len(walls), untraced, median(walls))
	return rep, writeSpans(rep, tr, cfg.outDir, fmt.Sprintf("%s-seed%d", name, g.BaseSeed))
}

// setCounts reports work counters summed over ops operations, per
// operation.
func setCounts(rep *report, n counts, ops float64) {
	v := rep.values
	v["pbs.starts"] = float64(n.pbsStarts) / ops
	v["pbs.ends"] = float64(n.pbsEnds) / ops
	v["pbs.requeues"] = float64(n.pbsRequeues) / ops
	v["winhpc.starts"] = float64(n.winStarts) / ops
	v["winhpc.ends"] = float64(n.winEnds) / ops
	v["winhpc.requeues"] = float64(n.winRequeues) / ops
	v["simtime.events"] = float64(n.events) / ops
	v["simtime.pending_after_schedule"] = float64(n.pendingAfter) / ops
	v["cluster.submit_failures"] = float64(n.submitFailures) / ops
	v["workload.jobs"] = float64(n.jobs) / ops
	v["metrics.hook_calls"] = float64(n.hookCalls) / ops
	v["metrics.hook_s"] = n.hookTime.Seconds() / ops
	v["controller.cycles"] = float64(n.cycles) / ops
	v["controller.decisions"] = float64(n.decisions) / ops
	v["controller.switches"] = float64(n.switches) / ops
	v["controller.switch_failures"] = float64(n.switchFailures) / ops
}

// idleFrac is the median over operations of the share of worker time
// the replay pool spent without a cell to run.
func idleFrac(tr *tracer, workers int) float64 {
	cells := tr.perOp("sweep.cell", sum)
	var xs []float64
	for op, run := range tr.perOp("sweep.run", sum) {
		if run > 0 {
			xs = append(xs, 1-cells[op]/(float64(workers)*run))
		}
	}
	sort.Float64s(xs)
	return median(xs)
}

// writeSpans dumps the trace and notes where it went.
func writeSpans(rep *report, tr *tracer, dir, name string) error {
	path := filepath.Join(dir, "spans-"+name+".json")
	if err := tr.write(path); err != nil {
		return err
	}
	rep.notef("spans: %s", path)
	return nil
}
