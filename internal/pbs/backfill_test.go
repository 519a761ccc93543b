package pbs

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// This file pins the EASY backfill guarantees against the starvation
// bug the old greedy backfill shipped: under a continuous stream of
// narrow jobs, a blocked wide head job must start no later than its
// reservation (shadow) time. scheduleGreedy below is a verbatim
// replica of the old greedy pass, kept here so the starvation it
// causes stays demonstrable.

// scheduleGreedy replicates the pre-EASY greedy backfill: place
// anything that fits, in queue order, with no reservation for the
// blocked head.
func (s *Server) scheduleGreedy() {
	for _, j := range s.QueuedJobs() {
		if !s.schedulable(j) {
			continue
		}
		s.core.TryStart(j.SeqNo - 1)
	}
}

// starvationWorkload builds the canonical starvation scenario on a
// 2-node×4-CPU server: a blocker pins node 1 for two hours, a wide
// 2-node job queues behind it, and a narrow 1-CPU job arrives every
// ten minutes for six hours. The wide job's EASY reservation is the
// blocker's projected end: t=2h.
func starvationWorkload(eng *simtime.Engine, s *Server) (wide *Job, narrows *[]*Job) {
	s.Qsub(SubmitRequest{Name: "blocker", Nodes: 1, PPN: 4,
		Runtime: 2 * time.Hour, Walltime: 2 * time.Hour})
	eng.RunUntil(time.Second) // let the blocker start
	wide, _ = s.Qsub(SubmitRequest{Name: "wide", Nodes: 2, PPN: 4,
		Runtime: time.Hour, Walltime: time.Hour})
	narrows = &[]*Job{}
	for i := 0; i < 36; i++ {
		eng.At(90*time.Second+time.Duration(i)*10*time.Minute, func() {
			n, _ := s.Qsub(SubmitRequest{Name: "narrow", Nodes: 1, PPN: 1,
				Runtime: 30 * time.Minute, Walltime: 30 * time.Minute})
			*narrows = append(*narrows, n)
		})
	}
	return wide, narrows
}

const wideReservation = 2 * time.Hour // the blocker's projected end

func TestEASYBackfillBoundsWideJobWait(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Backfill = true
	wide, narrows := starvationWorkload(eng, s)
	eng.RunUntil(6 * time.Hour)

	if wide.State != StateRunning && wide.State != StateComplete {
		t.Fatalf("wide job state = %v, want started", wide.State)
	}
	if wide.StartTime > wideReservation {
		t.Fatalf("wide job started at %v, after its %v reservation", wide.StartTime, wideReservation)
	}
	// The run genuinely backfilled: narrow jobs jumped the blocked
	// head without delaying it.
	jumped := 0
	for _, n := range *narrows {
		if n.StartTime > 0 && n.StartTime < wide.StartTime {
			jumped++
		}
	}
	if jumped < 5 {
		t.Fatalf("only %d narrow jobs backfilled ahead of the wide head", jumped)
	}
	eng.Run()
}

// TestEASYRejectsCandidatesThatWouldDelayTheHead drives the scenario
// to just before the reservation: a narrow job whose walltime crosses
// the shadow time must wait even though CPUs are free.
func TestEASYRejectsCandidatesThatWouldDelayTheHead(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Backfill = true
	s.Qsub(SubmitRequest{Name: "blocker", Nodes: 1, PPN: 4,
		Runtime: 2 * time.Hour, Walltime: 2 * time.Hour})
	eng.RunUntil(time.Second)
	wide, _ := s.Qsub(SubmitRequest{Name: "wide", Nodes: 2, PPN: 4,
		Runtime: time.Hour, Walltime: time.Hour})
	var late *Job
	eng.At(100*time.Minute, func() {
		// 100m + 30m walltime = 130m > the 120m shadow: starting it
		// would hold a CPU the wide job is booked to use.
		late, _ = s.Qsub(SubmitRequest{Name: "late", Nodes: 1, PPN: 1,
			Runtime: 30 * time.Minute, Walltime: 30 * time.Minute})
	})
	eng.RunUntil(119 * time.Minute)
	if late.State != StateQueued {
		t.Fatalf("late narrow job state = %v, want queued behind the reservation", late.State)
	}
	eng.RunUntil(3 * time.Hour)
	if wide.StartTime != wideReservation {
		t.Fatalf("wide job started at %v, want exactly its %v reservation", wide.StartTime, wideReservation)
	}
	// Once the wide job holds the machine, the late narrow follows it.
	eng.Run()
	if late.State != StateComplete {
		t.Fatalf("late narrow job state = %v", late.State)
	}
}

func TestGreedyBackfillReplicaStarvesWideJob(t *testing.T) {
	eng, s := newTestServer(t, 2)
	s.Backfill = true
	s.core.Override = func(func()) { s.scheduleGreedy() }
	wide, narrows := starvationWorkload(eng, s)
	eng.RunUntil(6 * time.Hour)

	// The greedy replica keeps feeding narrow jobs onto the free node:
	// the wide head is still queued past the whole six-hour stream.
	if wide.State != StateQueued {
		t.Fatalf("wide job state = %v, want starved in queue under greedy backfill", wide.State)
	}
	started := 0
	for _, n := range *narrows {
		if n.StartTime > 0 {
			started++
		}
	}
	if started < 20 {
		t.Fatalf("greedy replica only started %d narrow jobs", started)
	}
	eng.Run()
}
