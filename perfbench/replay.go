package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/osid"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// counts are the work counters a traced replay reads at layer
// boundaries: the schedulers' exported job hooks, the cluster's
// lifecycle hooks, the controller's Stats and the engine's counters.
type counts struct {
	pbsStarts, pbsEnds, pbsRequeues int
	winStarts, winEnds, winRequeues int
	// hookCalls and hookTime cover the wrapped scheduler hooks, whose
	// bodies feed the metrics recorder.
	hookCalls      int
	hookTime       time.Duration
	submitFailures int
	switches       int
	switchFailures int
	cycles         int
	decisions      int
	events         uint64
	pendingAfter   int
	jobs           int
	unfinished     int
}

func (c *counts) add(o counts) {
	c.pbsStarts += o.pbsStarts
	c.pbsEnds += o.pbsEnds
	c.pbsRequeues += o.pbsRequeues
	c.winStarts += o.winStarts
	c.winEnds += o.winEnds
	c.winRequeues += o.winRequeues
	c.hookCalls += o.hookCalls
	c.hookTime += o.hookTime
	c.submitFailures += o.submitFailures
	c.switches += o.switches
	c.switchFailures += o.switchFailures
	c.cycles += o.cycles
	c.decisions += o.decisions
	c.events += o.events
	c.pendingAfter += o.pendingAfter
	c.jobs += o.jobs
	c.unfinished += o.unfinished
}

// timed wraps one scheduler hook so each call is counted and timed.
func timed[J any](n *counts, class *int, hook func(J)) func(J) {
	return func(j J) {
		*class++
		n.hookCalls++
		t0 := now()
		if hook != nil {
			hook(j)
		}
		n.hookTime += since(t0)
	}
}

// replayCell runs one sweep cell the way sweep.Run does — Cell.Scenario
// then core.Run — but calls core.Run's steps one at a time so each
// layer gets a span: workload.build, cluster.new, cluster.schedule_trace,
// simtime.drain and metrics.summarise. Only single-cluster cells without
// time-series sampling are replayed; those are the only cells the
// benchmark's workloads contain.
func replayCell(t *tracer, op, parent int, c sweep.Cell) (core.Result, counts, error) {
	var n counts
	name := c.Name()
	sp := t.begin(op, parent, "workload.build", name)
	sc, err := c.Scenario()
	t.end(sp)
	if err != nil {
		return core.Result{}, n, err
	}
	if sc.Topology.IsGrid() || sc.SampleInterval > 0 {
		return core.Result{}, n, fmt.Errorf("replay: cell %s is not a plain single-cluster run", name)
	}
	if err := sc.Trace.Validate(); err != nil {
		return core.Result{}, n, fmt.Errorf("core: %w", err)
	}
	n.jobs = len(sc.Trace)
	// core.Run's defaults and overrides, in its order.
	horizon := sc.Horizon
	if horizon <= 0 {
		horizon = sc.Trace.Span() + 48*time.Hour
	}
	if sc.SchedPolicy != cluster.SchedFCFS {
		sc.Cluster.SchedPolicy = sc.SchedPolicy
	}
	if sc.Latency != nil {
		sc.Cluster.Latency = sc.Latency
	}

	sp = t.begin(op, parent, "cluster.new", name)
	cl, err := cluster.New(sc.Cluster)
	t.end(sp)
	if err != nil {
		return core.Result{}, n, err
	}
	cl.PBS.OnJobStart = timed(&n, &n.pbsStarts, cl.PBS.OnJobStart)
	cl.PBS.OnJobEnd = timed(&n, &n.pbsEnds, cl.PBS.OnJobEnd)
	cl.PBS.OnJobRequeue = timed(&n, &n.pbsRequeues, cl.PBS.OnJobRequeue)
	cl.Win.OnJobStart = timed(&n, &n.winStarts, cl.Win.OnJobStart)
	cl.Win.OnJobEnd = timed(&n, &n.winEnds, cl.Win.OnJobEnd)
	cl.Win.OnJobRequeue = timed(&n, &n.winRequeues, cl.Win.OnJobRequeue)
	cl.AddHooks(cluster.Hooks{
		SwitchLanded: func(_ string, _ osid.OS, ok bool) {
			n.switches++
			if !ok {
				n.switchFailures++
			}
		},
		SubmitFailed: func(workload.Job, error) { n.submitFailures++ },
	})

	sp = t.begin(op, parent, "cluster.schedule_trace", name)
	err = cl.ScheduleTrace(sc.Trace)
	t.end(sp)
	if err != nil {
		return core.Result{}, n, err
	}
	n.pendingAfter = cl.Eng.Pending()

	sp = t.begin(op, parent, "simtime.drain", name)
	cl.RunUntilDrained(horizon)
	t.end(sp)

	sp = t.begin(op, parent, "metrics.summarise", name)
	sum := cl.Summary()
	t.end(sp)

	res := core.Result{
		Name:           sc.Name,
		Mode:           cl.Config().Mode,
		Summary:        sum,
		ControlActions: cl.ControlActions(),
		BrokenNodes:    cl.BrokenCount(),
		Events:         cl.Events(),
		AppStats:       cl.Rec.AppStats(),
		EventsRun:      cl.Eng.EventsRun(),
	}
	if cl.Mgr != nil {
		res.Controller = cl.Mgr.Stats()
		res.Thrash = cl.Mgr.Thrash()
		n.cycles = res.Controller.Cycles
		n.decisions = res.Controller.Switches
	}
	n.events = res.EventsRun
	n.unfinished = cl.Unfinished()
	return res, n, nil
}

// replaySweep replays every cell of a grid on a pool of workers, as
// sweep.Run schedules them, under one operation's root span.
func replaySweep(t *tracer, op int, g sweep.Grid, workers int) (*sweep.Outcome, []counts, error) {
	cells := g.Expand()
	root := t.begin(op, 0, "sweep.run", "")
	defer t.end(root)
	results := make([]sweep.CellResult, len(cells))
	per := make([]counts, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sp := t.begin(op, root, "sweep.cell", cells[i].Name())
				res, n, err := replayCell(t, op, sp, cells[i])
				t.end(sp)
				results[i] = sweep.CellResult{Cell: cells[i], Res: res, Err: err}
				per[i] = n
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, r := range results {
		if r.Err != nil {
			return nil, nil, fmt.Errorf("replay: cell %s: %w", r.Cell.Name(), r.Err)
		}
	}
	return &sweep.Outcome{Results: results}, per, nil
}

// checkReplay proves a traced replay measured the same program as the
// untraced sweep.Run: every cell's EventsRun and metrics.Summary must
// match exactly.
func checkReplay(ref, got *sweep.Outcome) error {
	if len(ref.Results) != len(got.Results) {
		return fmt.Errorf("replay: %d cells, sweep.Run had %d", len(got.Results), len(ref.Results))
	}
	for i, r := range ref.Results {
		g := got.Results[i]
		if r.Res.EventsRun != g.Res.EventsRun {
			return fmt.Errorf("replay: cell %s ran %d events, sweep.Run ran %d", r.Cell.Name(), g.Res.EventsRun, r.Res.EventsRun)
		}
		if !reflect.DeepEqual(r.Res.Summary, g.Res.Summary) {
			return fmt.Errorf("replay: cell %s summary differs from sweep.Run:\n got %+v\nwant %+v", r.Cell.Name(), g.Res.Summary, r.Res.Summary)
		}
	}
	return nil
}

// jobTotals sums a summary's per-OS submitted and completed counts.
func jobTotals(s metrics.Summary) (submitted, completed int) {
	return s.JobsSubmitted[osid.Linux] + s.JobsSubmitted[osid.Windows],
		s.JobsCompleted[osid.Linux] + s.JobsCompleted[osid.Windows]
}

// checkBalance checks that a cell accounts for each trace job exactly
// once: completed + unfinished at the horizon + rejected at submission
// = jobs in the trace.
func checkBalance(cell string, s metrics.Summary, jobs, unfinished int) error {
	_, completed := jobTotals(s)
	if unfinished < 0 || completed+unfinished+s.SubmitFailures != jobs {
		return fmt.Errorf("cell %s: %d completed + %d unfinished + %d rejected != %d trace jobs",
			cell, completed, unfinished, s.SubmitFailures, jobs)
	}
	return nil
}

// traceJobs builds each cell's trace once and returns its length.
func traceJobs(cells []sweep.Cell) ([]int, error) {
	jobs := make([]int, len(cells))
	for i, c := range cells {
		sc, err := c.Scenario()
		if err != nil {
			return nil, err
		}
		jobs[i] = len(sc.Trace)
	}
	return jobs, nil
}
