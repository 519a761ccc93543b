package winhpc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// scratchRebuild throws away every piece of incremental scheduler
// state and recomputes it from the ground truth: the core rebuilds its
// queue and running ledgers, census, per-node grant counts and both
// node trees from the jobs' states and grants (failing the test if any
// had drifted), and the scheduler recomputes its node census from the
// node table. The equivalence test rebuilds before every scheduling
// pass on one of two twin schedulers; if the incremental state ever
// drifted from a from-scratch recompute, the twins' placement
// decisions would diverge.
func scratchRebuild(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.core.Rebuild(); err != nil {
		t.Fatal(err)
	}
	s.allCores, s.coresUp = 0, 0
	for _, n := range s.nodeList {
		s.allCores += n.Cores
		if n.state != NodeUnreachable {
			s.coresUp += n.Cores
		}
	}
}

// winAction is one scripted step; the same script drives both twins.
type winAction struct {
	at   time.Duration
	kind int // 0 submit, 1 cancel, 2 node unreachable, 3 node online
	job  int // submission index for cancel
	node string
	spec JobSpec
}

// winScript generates a deterministic randomized workload: core- and
// node-unit jobs across all priority levels, cancellations, and node
// outages (which requeue rerunnable jobs through the priority-ordered
// revival path of the queue ledger). Core-unit jobs ask for
// 1..maxCores cores.
func winScript(seed int64, nodes, jobs, maxCores int) []winAction {
	rng := rand.New(rand.NewSource(seed))
	var script []winAction
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		spec := JobSpec{
			Name:     fmt.Sprintf("job%03d", i),
			Owner:    "eq",
			Runtime:  time.Duration(rng.Int63n(int64(2*time.Hour))) + 5*time.Minute,
			Rerun:    rng.Intn(4) != 0,
			Priority: Priority(rng.Intn(5) - 2),
		}
		if rng.Intn(3) == 0 {
			spec.Unit = UnitNode
			spec.Count = 1 + rng.Intn(2)
		} else {
			spec.Unit = UnitCore
			spec.Count = 1 + rng.Intn(maxCores)
		}
		script = append(script, winAction{at: at, kind: 0, job: i, spec: spec})
		if rng.Intn(10) == 0 {
			script = append(script, winAction{at: at + time.Duration(rng.Int63n(int64(time.Hour))), kind: 1, job: i})
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("eqwin%02d", 1+rng.Intn(nodes))
		down := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		script = append(script, winAction{at: down, kind: 2, node: name})
		script = append(script, winAction{at: down + time.Duration(rng.Int63n(int64(time.Hour))) + time.Minute, kind: 3, node: name})
	}
	return script
}

// runWinScript drives one scheduler, whose node i has sizes[i] cores,
// through the script. When rebuild is set, every scheduling pass is
// preceded by a from-scratch state recompute.
func runWinScript(t *testing.T, script []winAction, sizes []int, backfill, rebuild bool) *Scheduler {
	t.Helper()
	eng := simtime.NewEngine()
	s := NewScheduler(eng, "EQHEAD")
	s.Backfill = backfill
	if rebuild {
		s.core.Override = func(pass func()) {
			scratchRebuild(t, s)
			pass()
		}
	}
	for i, cores := range sizes {
		if _, err := s.AddNode(fmt.Sprintf("eqwin%02d", i+1), cores, true); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]int, len(script))
	for _, a := range script {
		a := a
		eng.After(a.at, func() {
			switch a.kind {
			case 0:
				j, err := s.SubmitJob(a.spec)
				if err != nil {
					t.Errorf("submit %s: %v", a.spec.Name, err)
					return
				}
				ids[a.job] = j.ID
			case 1:
				_ = s.CancelJob(ids[a.job]) // may legitimately race completion
			case 2:
				_ = s.SetNodeOnline(a.node, false)
			case 3:
				_ = s.SetNodeOnline(a.node, true)
			}
		})
	}
	eng.Run()
	return s
}

// TestWinHPCIncrementalMatchesScratchRecompute runs the identical
// randomized workload on twin schedulers — one scheduling off its
// incremental ledgers and free-core profile, one rebuilding all of it
// from scratch before every pass — and requires identical outcomes:
// same start times, same allocations, same final states. The mixed
// cases use a 2/4/8-core node table and core jobs of up to 16 cores,
// so whole-node and cores-anywhere fits are checked where node sizes
// differ.
func TestWinHPCIncrementalMatchesScratchRecompute(t *testing.T) {
	uniform := make([]int, 12)
	mixed := make([]int, 12)
	for i := range uniform {
		uniform[i] = 4
		mixed[i] = []int{2, 4, 8}[i%3]
	}
	for _, tc := range []struct {
		name     string
		seed     int64
		sizes    []int
		maxCores int
	}{
		{"", 733, uniform, 8},
		{"mixed_", 1187, mixed, 16},
	} {
		for _, backfill := range []bool{false, true} {
			name := tc.name + "fcfs"
			if backfill {
				name = tc.name + "backfill"
			}
			t.Run(name, func(t *testing.T) {
				script := winScript(tc.seed, len(tc.sizes), 120, tc.maxCores)
				inc := runWinScript(t, script, tc.sizes, backfill, false)
				ref := runWinScript(t, script, tc.sizes, backfill, true)
				if err := inc.core.Rebuild(); err != nil {
					t.Fatal(err)
				}
				if len(inc.jobs) != len(ref.jobs) {
					t.Fatalf("job counts diverged: %d vs %d", len(inc.jobs), len(ref.jobs))
				}
				for i, a := range inc.jobs {
					b := ref.jobs[i]
					if a.State != b.State || a.StartTime != b.StartTime || a.EndTime != b.EndTime {
						t.Fatalf("job %d diverged: incremental (%v start=%v end=%v) vs scratch (%v start=%v end=%v)",
							a.ID, a.State, a.StartTime, a.EndTime, b.State, b.StartTime, b.EndTime)
					}
					if fmt.Sprint(a.Alloc) != fmt.Sprint(b.Alloc) {
						t.Fatalf("job %d allocation diverged:\n%v\nvs\n%v", a.ID, a.Alloc, b.Alloc)
					}
				}
			})
		}
	}
}
