package pbs

import (
	"strings"
	"testing"
	"time"
)

func TestDefaultQueueExists(t *testing.T) {
	_, s := newTestServer(t, 1)
	q, err := s.GetQueue("default")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Enabled() || !q.Started() {
		t.Fatalf("default queue = %+v", q)
	}
	if len(s.Queues()) != 1 {
		t.Fatalf("queues = %d", len(s.Queues()))
	}
}

func TestCreateQueueValidation(t *testing.T) {
	_, s := newTestServer(t, 1)
	if _, err := s.CreateQueue(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.CreateQueue("default"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := s.CreateQueue("batch"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetQueue("batch"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetQueue("nope"); err == nil {
		t.Fatal("phantom queue found")
	}
}

func TestQueuesSorted(t *testing.T) {
	_, s := newTestServer(t, 1)
	s.CreateQueue("zed")
	s.CreateQueue("alpha")
	qs := s.Queues()
	if qs[0].Name != "alpha" || qs[1].Name != "default" || qs[2].Name != "zed" {
		t.Fatalf("order = %v %v %v", qs[0].Name, qs[1].Name, qs[2].Name)
	}
}

func TestQsubUnknownQueueRejected(t *testing.T) {
	_, s := newTestServer(t, 1)
	if _, err := s.Qsub(SubmitRequest{Name: "x", Queue: "ghost", Runtime: time.Minute}); err == nil {
		t.Fatal("unknown queue accepted")
	}
}

func TestDisabledQueueRejectsSubmissions(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.CreateQueue("batch")
	if err := s.SetQueueEnabled("batch", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Qsub(SubmitRequest{Name: "x", Queue: "batch", Runtime: time.Minute}); err == nil {
		t.Fatal("disabled queue accepted a job")
	}
	s.SetQueueEnabled("batch", true)
	if _, err := s.Qsub(SubmitRequest{Name: "x", Queue: "batch", Runtime: time.Minute}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

func TestStoppedQueueHoldsJobsWithoutBlocking(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.CreateQueue("held")
	if err := s.SetQueueStarted("held", false); err != nil {
		t.Fatal(err)
	}
	heldJob, _ := s.Qsub(SubmitRequest{Name: "held", Queue: "held", Nodes: 1, PPN: 4, Runtime: time.Minute})
	freeJob, _ := s.Qsub(SubmitRequest{Name: "free", Nodes: 1, PPN: 4, Runtime: time.Minute})
	eng.RunUntil(30 * time.Second)
	if heldJob.State != StateQueued {
		t.Fatalf("held job state = %v", heldJob.State)
	}
	// The held job must not block the default queue behind it.
	if freeJob.State != StateRunning {
		t.Fatalf("free job state = %v", freeJob.State)
	}
	// Starting the queue releases the job.
	s.SetQueueStarted("held", true)
	eng.Run()
	if heldJob.State != StateComplete {
		t.Fatalf("held job = %v after queue start", heldJob.State)
	}
}

func TestQueueMaxRunning(t *testing.T) {
	eng, s := newTestServer(t, 4)
	q, _ := s.CreateQueue("limited")
	q.MaxRunning = 1
	a, _ := s.Qsub(SubmitRequest{Name: "a", Queue: "limited", Nodes: 1, PPN: 4, Runtime: time.Hour})
	bJob, _ := s.Qsub(SubmitRequest{Name: "b", Queue: "limited", Nodes: 1, PPN: 4, Runtime: time.Hour})
	other, _ := s.Qsub(SubmitRequest{Name: "c", Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(time.Minute)
	if a.State != StateRunning {
		t.Fatalf("a = %v", a.State)
	}
	if bJob.State != StateQueued {
		t.Fatalf("b = %v, queue cap ignored", bJob.State)
	}
	if other.State != StateRunning {
		t.Fatalf("other = %v, capped queue blocked default", other.State)
	}
	eng.RunUntil(90 * time.Minute)
	if bJob.State != StateRunning {
		t.Fatalf("b = %v after a finished", bJob.State)
	}
	eng.Run()
}

func TestSetQueueFlagsUnknown(t *testing.T) {
	_, s := newTestServer(t, 1)
	if err := s.SetQueueEnabled("ghost", true); err == nil {
		t.Fatal("enable on unknown queue succeeded")
	}
	if err := s.SetQueueStarted("ghost", true); err == nil {
		t.Fatal("start on unknown queue succeeded")
	}
}

func TestQstatSummaryShape(t *testing.T) {
	eng, s := newTestServer(t, 1)
	s.Qsub(SubmitRequest{Name: "release_1_node", Owner: "sliang@eridani.qgg.hud.ac.uk",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	s.Qsub(SubmitRequest{Name: "dlpoly-run", Owner: "chem@eridani.qgg.hud.ac.uk",
		Nodes: 1, PPN: 4, Runtime: time.Hour})
	eng.RunUntil(10 * time.Second)
	out := s.QstatSummary()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two jobs
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Job ID") || !strings.Contains(lines[0], "Queue") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "release_1_node") || !strings.Contains(lines[2], " R ") {
		t.Fatalf("running row = %q", lines[2])
	}
	if !strings.Contains(lines[2], "sliang") || strings.Contains(lines[2], "@") {
		t.Fatalf("user column = %q", lines[2])
	}
	if !strings.Contains(lines[2], "00:00:10") {
		t.Fatalf("time use = %q", lines[2])
	}
	if !strings.Contains(lines[3], " Q ") {
		t.Fatalf("queued row = %q", lines[3])
	}
	// Completed jobs drop out.
	eng.Run()
	out = s.QstatSummary()
	if strings.Contains(out, "release_1_node") {
		t.Fatalf("completed job still listed:\n%s", out)
	}
}

// TestBackfillSkipsGatedQueues: under EASY backfill, jobs in a capped
// or stopped queue are skipped, both ahead of the pivot and behind it.
// Ahead of it, a gated wide job must not become the pivot: booked at
// the blocker's one-hour end, it would reject the later job, whose
// two-hour walltime runs past that. Behind it, a gated narrow job must
// not backfill even though it fits and ends before the shadow time.
func TestBackfillSkipsGatedQueues(t *testing.T) {
	for _, gate := range []string{"capped", "stopped"} {
		t.Run(gate, func(t *testing.T) {
			eng, s := newTestServer(t, 2)
			s.Backfill = true
			q, _ := s.CreateQueue("gated")
			blocker, _ := s.Qsub(SubmitRequest{Name: "blocker", Queue: "gated", Nodes: 1, PPN: 4,
				Runtime: time.Hour, Walltime: time.Hour})
			eng.RunUntil(time.Second)
			if gate == "capped" {
				q.MaxRunning = 1
			} else {
				s.SetQueueStarted("gated", false)
			}
			wide, _ := s.Qsub(SubmitRequest{Name: "wide", Queue: "gated", Nodes: 2, PPN: 4,
				Runtime: time.Hour, Walltime: time.Hour})
			later, _ := s.Qsub(SubmitRequest{Name: "later", Nodes: 1, PPN: 2,
				Runtime: 2 * time.Hour, Walltime: 2 * time.Hour})
			pivot, _ := s.Qsub(SubmitRequest{Name: "pivot", Nodes: 2, PPN: 4,
				Runtime: time.Hour, Walltime: time.Hour})
			narrow, _ := s.Qsub(SubmitRequest{Name: "narrow", Queue: "gated", Nodes: 1, PPN: 1,
				Runtime: 30 * time.Minute, Walltime: 30 * time.Minute})
			eng.RunUntil(time.Minute)
			if blocker.State != StateRunning || wide.State != StateQueued || pivot.State != StateQueued {
				t.Fatalf("blocker %v, wide %v, pivot %v", blocker.State, wide.State, pivot.State)
			}
			if later.State != StateRunning {
				t.Fatalf("later job = %v, blocked behind a %s queue", later.State, gate)
			}
			if narrow.State != StateQueued {
				t.Fatalf("narrow job = %v, backfilled from a %s queue", narrow.State, gate)
			}
			if gate == "stopped" {
				s.SetQueueStarted("gated", true)
			}
			eng.Run()
			for _, j := range []*Job{blocker, wide, later, pivot, narrow} {
				if j.State != StateComplete {
					t.Fatalf("%s = %v after the run", j.Name, j.State)
				}
			}
		})
	}
}
