package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/service"
	"repro/internal/sweep"
)

// The serve workload is a closed loop against an in-process daemon on
// 127.0.0.1:0 with a fresh state directory. Each client submits a
// cold spec — perfbench/specs/serve.json, the E15 policy-suite shape,
// with a fresh base seed so the cache misses — waits for it and fetches
// its CSV, then resubmits specs that have already finished. Every
// served CSV is afterwards checked against a direct sweep.Run.

const (
	serveSpec = "perfbench/specs/serve.json"
	// serveSetupReps daemons are started to time set-up; the last one
	// serves the workload.
	serveSetupReps = 51
	// hitsPerCold resubmissions follow each cold job, so the cached
	// read path gets as many samples as the cold one gets time.
	hitsPerCold = 16
	// serveWarmup runs the loop unmeasured first: the daemon's first
	// seconds run about a tenth slower while the heap grows.
	serveWarmup = 3 * time.Second
	// serveCalibEvery spaces the calibrations in the measured loop.
	serveCalibEvery = 250 * time.Millisecond
)

// served is one cold job the client completed.
type served struct {
	grid sweep.Grid
	spec []byte
	id   string
	csv  []byte
}

// client is the closed loop's one client. A single client keeps cold
// jobs from running while a hit is timed, so hit_ms measures the
// cached read path rather than CPU contention.
type client struct {
	cl   *service.Client
	tmpl sweep.Spec
	rng  *rand.Rand
	rep  *report
	tr   *tracer // nil in untraced runs
	// heap, when set, is reset as each cold job starts and read as it
	// ends.
	heap *heapSampler
	// m, when set, times each cold job ("done"), each hit ("hit") and
	// each cold job with its hits ("cycle").
	m   *meter
	ops int
	// jobs holds every cold job, warm-up included: hits draw from it
	// and every served CSV is checked at the end.
	jobs []served
	// Samples of the measured window, in ms.
	done, hit, submit, queue, run, result, hitSubmit []float64
	peaks                                            []float64 // MiB

}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// startDaemon is the serve workload's set-up: a daemon on a fresh
// state directory, answering its health probe.
func startDaemon(root string, workers int) (*service.Server, string, error) {
	dir, err := os.MkdirTemp(root, "state-")
	if err != nil {
		return nil, "", err
	}
	srv, err := service.New(service.Config{Addr: "127.0.0.1:0", StateDir: dir, Workers: workers})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	if err := (&service.Client{Base: srv.Addr()}).Health(); err != nil {
		stopDaemon(srv, dir)
		return nil, "", err
	}
	return srv, dir, nil
}

func stopDaemon(srv *service.Server, dir string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck // the state directory is removed next
	os.RemoveAll(dir)
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	f, err := os.Open(serveSpec)
	if err != nil {
		return nil, err
	}
	tmpl, err := sweep.LoadSpec(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", serveSpec, err)
	}
	seed := cfg.seed
	if seed < 0 {
		seed = tmpl.Grid.BaseSeed
	}
	stateRoot := filepath.Join(cfg.outDir, "serve")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}

	m, err := newMeter()
	if err != nil {
		return nil, err
	}
	var (
		srv *service.Server
		dir string
	)
	m.calibrate(calibShort)
	for i := 0; i < serveSetupReps; i++ {
		m.calibrateEvery(calibSetupEvery, calibShort)
		t0 := now()
		s, d, err := startDaemon(stateRoot, cfg.workers)
		m.record("setup", since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		if i < serveSetupReps-1 {
			stopDaemon(s, d)
			continue
		}
		srv, dir = s, d
	}
	defer stopDaemon(srv, dir)

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c := &client{
		cl:   &service.Client{Base: srv.Addr(), HTTPClient: &http.Client{Transport: transport}},
		tmpl: tmpl,
		rng:  rand.New(rand.NewSource(seed)),
		rep:  rep,
	}
	c.loop(now().Add(serveWarmup))
	warm := len(c.jobs)
	c.done, c.hit = nil, nil

	var prof *profile
	if cfg.trace {
		c.tr = newTracer()
		if prof, err = startProfile(cfg.outDir, "cpu-serve.pprof"); err != nil {
			return nil, err
		}
	}
	c.heap = startHeapSampler()
	c.m = m
	runtime.GC()
	m.calibrate(calibShort)
	before := readRuntime()
	t0 := now()
	c.loop(t0.Add(cfg.window))
	elapsed := since(t0).Seconds()
	used := readRuntime().sub(before)
	m.calibrate(calibShort)
	c.heap.close()
	var self map[string]float64
	if prof != nil {
		if self, err = prof.layers(); err != nil {
			return nil, err
		}
	}
	if len(c.done) == 0 {
		return nil, fmt.Errorf("no cold job finished within %v", cfg.window)
	}

	// Check every served CSV against a direct sweep.Run of its spec.
	var (
		direct      []float64
		events      uint64
		cells, jobs int
		refs        []*sweep.Outcome
	)
	for k, j := range c.jobs {
		t0 := now()
		out, csv, err := sweepCSV(j.grid, cfg.workers)
		direct = append(direct, since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		tj, err := traceJobs(j.grid.Expand())
		if err != nil {
			return nil, err
		}
		checkOutcome(rep, out, tj)
		rep.check(checkCSV("served CSV of "+j.id+" against direct sweep.Run", j.csv, csv))
		refs = append(refs, out)
		if k < warm {
			continue
		}
		for i, r := range out.Results {
			events += r.Res.EventsRun
			jobs += tj[i]
		}
		cells += len(out.Results)
	}
	colds := float64(len(c.done))
	rep.notef("workload: %s, seed %d, 1 client, %d warm-up + %d measured cold jobs, %d cache hits in %.2fs",
		serveSpec, seed, warm, len(c.done), len(c.hit), elapsed)

	if !cfg.trace {
		// A cold job with its resubmissions is one cycle. The rates are
		// per median cycle: a stall of the host lengthens a few cycles
		// a lot, and a sum over the window would carry them.
		cycle := median(m.scaled("cycle"))
		done, hit := scale(m.scaled("done"), 1e3), scale(m.scaled("hit"), 1e3)
		rep.values["setup_s"] = median(m.scaled("setup"))
		rep.values["wall_s"] = cycle
		rep.values["events_per_s"] = float64(events) / colds / cycle
		rep.values["allocs_per_job"] = float64(used.mallocs) / float64(jobs)
		rep.values["peak_heap_mb"] = median(c.peaks)
		rep.values["done_ms_p50"] = quantile(done, 0.5)
		rep.values["hit_ms_p50"] = quantile(hit, 0.5)
		rep.values["serve_cells_per_s"] = float64(cells) / colds / cycle
		rep.notef("samples: %d cold jobs (done_ms), %d cache hits (hit_ms)", len(c.done), len(c.hit))
		noteTails(rep, done, hit)
		if err := m.dump(filepath.Join(cfg.outDir, fmt.Sprintf("meter-serve-seed%d.json", seed))); err != nil {
			return nil, err
		}
		noteSpeed(rep, m, "done", "hit", "setup")
		return rep, nil
	}

	// Traced: replay each served spec cell by cell for the layer split.
	var (
		total   counts
		replays []float64
	)
	tr := c.tr
	for i, j := range c.jobs {
		c.ops++
		op := c.ops
		t0 := now()
		got, per, err := replaySweep(tr, op, j.grid, cfg.workers)
		if err != nil {
			return nil, err
		}
		sp := tr.begin(op, 0, "export.csv", "")
		var b bytes.Buffer
		err = export.WriteSweepCSV(&b, got.Rows())
		tr.end(sp)
		replays = append(replays, since(t0).Seconds())
		if err == nil {
			err = checkCSV("replayed CSV of "+j.id, b.Bytes(), j.csv)
		}
		rep.check(err)
		rep.check(checkReplay(refs[i], got))
		for k, n := range per {
			rep.check(checkBalance(got.Results[k].Cell.Name(), got.Results[k].Res.Summary, n.jobs, n.unfinished))
			total.add(n)
		}
	}
	setCounts(rep, total, float64(len(c.jobs)))
	v := rep.values
	v["simtime.drain_s"] = tr.medianOp("simtime.drain", sum)
	v["simtime.ns_per_event"] = v["simtime.drain_s"] * 1e9 / v["simtime.events"]
	v["cluster.new_s"] = tr.medianOp("cluster.new", sum)
	v["cluster.schedule_trace_s"] = tr.medianOp("cluster.schedule_trace", sum)
	v["workload.build_s"] = tr.medianOp("workload.build", sum)
	v["metrics.summarise_s"] = tr.medianOp("metrics.summarise", sum)
	v["runtime.gc_cpu_s"] = used.gcCPU / colds
	v["runtime.allocs"] = float64(used.mallocs) / colds
	v["runtime.alloc_mb"] = float64(used.allocBytes) / (1 << 20) / colds
	v["sweep.cells"] = float64(cells) / colds
	v["sweep.cell_s_p50"] = median(tr.durations("sweep.cell"))
	v["sweep.cell_s_max"] = tr.medianOp("sweep.cell", maxOf)
	v["sweep.worker_idle_frac"] = idleFrac(tr, cfg.workers)
	v["export.csv_s"] = tr.medianOp("export.csv", sum)
	v["service.submit_ms_p50"] = median(c.submit)
	v["service.queue_ms_p50"] = median(c.queue)
	v["service.run_ms_p50"] = median(c.run)
	v["service.result_ms_p50"] = median(c.result)
	v["service.hit_submit_ms_p50"] = median(c.hitSubmit)
	v["service.direct_s"] = median(direct)
	v["service.overhead_ratio"] = median(c.done) / (1e3 * median(direct))
	v["service.cache_hits"] = float64(len(c.hit))
	v["trace.overhead_s"] = median(replays) - median(direct)
	setSelf(rep, self, colds)
	return rep, writeSpans(rep, tr, cfg.outDir, fmt.Sprintf("serve-seed%d", seed))
}

// loop runs cold jobs, each followed by hitsPerCold resubmissions of
// finished specs, until the deadline.
func (c *client) loop(deadline time.Time) {
	for now().Before(deadline) {
		if c.m != nil {
			c.m.calibrateEvery(serveCalibEvery, calibShort)
		}
		g := c.tmpl.Grid
		g.BaseSeed = c.rng.Int63n(1 << 40)
		spec, err := sweep.MarshalSpec(sweep.Spec{Version: sweep.SpecVersion, Name: c.tmpl.Name, Grid: g})
		if err != nil {
			c.rep.check(err)
			return
		}
		t0 := now()
		id, csv, err := c.cold(spec)
		c.rep.check(err)
		if err != nil {
			continue
		}
		c.jobs = append(c.jobs, served{grid: g, spec: spec, id: id, csv: csv})
		for k := 0; k < hitsPerCold; k++ {
			c.rep.check(c.resubmit(c.jobs[c.rng.Intn(len(c.jobs))]))
		}
		if c.m != nil {
			c.m.record("cycle", since(t0).Seconds())
		}
	}
}

// cold submits a spec the daemon has not seen, waits for it and
// fetches its CSV.
func (c *client) cold(spec []byte) (string, []byte, error) {
	c.ops++
	if c.heap != nil {
		c.heap.reset()
	}
	t0 := now()
	j, err := c.cl.Submit(bytes.NewReader(spec))
	t1 := now()
	if err != nil {
		return "", nil, err
	}
	if j.State != service.StateQueued {
		return "", nil, fmt.Errorf("cold job %s: submitted as %s, want a fresh queued job", j.ID, j.State)
	}
	var t2, t3 time.Time
	if c.tr != nil {
		t2, t3, err = waitTraced(c.cl, j.ID)
		if err == nil {
			j, err = c.cl.Status(j.ID)
		}
	} else {
		j, err = c.cl.Wait(j.ID)
	}
	if err != nil {
		return "", nil, err
	}
	if j.State != service.StateDone || j.Cached || j.CellsDone != j.Cells {
		return "", nil, fmt.Errorf("cold job %s ended %s (cached %v, %d/%d cells)", j.ID, j.State, j.Cached, j.CellsDone, j.Cells)
	}
	t4 := now()
	csv, err := c.cl.Result(j.ID, "csv")
	t5 := now()
	if err != nil {
		return "", nil, err
	}
	c.done = append(c.done, ms(t5.Sub(t0)))
	if c.m != nil {
		c.m.record("done", t5.Sub(t0).Seconds())
	}
	if c.heap != nil {
		c.peaks = append(c.peaks, c.heap.peakMB())
	}
	if c.tr != nil {
		root := c.tr.record(c.ops, 0, "service.cold", t0, t5)
		c.tr.record(c.ops, root, "service.submit", t0, t1)
		c.tr.record(c.ops, root, "service.queued", t1, t2)
		c.tr.record(c.ops, root, "service.running", t2, t3)
		c.tr.record(c.ops, root, "service.result", t4, t5)
		c.submit = append(c.submit, ms(t1.Sub(t0)))
		c.queue = append(c.queue, ms(t2.Sub(t1)))
		c.run = append(c.run, ms(t3.Sub(t2)))
		c.result = append(c.result, ms(t5.Sub(t4)))
	}
	return j.ID, csv, nil
}

// resubmit sends a finished spec again: the daemon must answer with
// the original job, already done, and serve the same CSV.
func (c *client) resubmit(s served) error {
	c.ops++
	t0 := now()
	j, err := c.cl.Submit(bytes.NewReader(s.spec))
	t1 := now()
	if err != nil {
		return err
	}
	if j.ID != s.id || j.State != service.StateDone {
		return fmt.Errorf("resubmitted %s: got job %s in state %s, want the cached job", s.id, j.ID, j.State)
	}
	csv, err := c.cl.Result(j.ID, "csv")
	t2 := now()
	if err != nil {
		return err
	}
	c.hit = append(c.hit, ms(t2.Sub(t0)))
	if c.m != nil {
		c.m.record("hit", t2.Sub(t0).Seconds())
	}
	if c.tr != nil {
		root := c.tr.record(c.ops, 0, "service.hit", t0, t2)
		c.tr.record(c.ops, root, "service.hit_submit", t0, t1)
		c.tr.record(c.ops, root, "service.hit_result", t1, t2)
		c.hitSubmit = append(c.hitSubmit, ms(t1.Sub(t0)))
	}
	return checkCSV("cached CSV of "+s.id, csv, s.csv)
}

// waitTraced follows a job's event stream and returns when the running
// and the terminal events arrived. A job already running when the
// stream opens reports the open time for both transitions it missed.
func waitTraced(cl *service.Client, id string) (running, terminal time.Time, err error) {
	hc := cl.HTTPClient
	resp, err := hc.Get("http://" + cl.Base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return running, terminal, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, terminal, fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e service.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return running, terminal, fmt.Errorf("events of %s: %w", id, err)
		}
		at := now()
		switch e.Type {
		case "running", "cell":
			if running.IsZero() {
				running = at
			}
		case "done", "failed":
			if running.IsZero() {
				running = at
			}
			return running, at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return running, terminal, err
	}
	return running, terminal, fmt.Errorf("events of %s: stream ended without a terminal event", id)
}
