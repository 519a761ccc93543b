package pbs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// scratchRebuild throws away every piece of incremental scheduler
// state and recomputes it from the ground truth: the core rebuilds its
// queue and running ledgers, census, per-node grant counts and
// free-CPU trees from the jobs' states and grants (failing the test if
// any had drifted), and the server recomputes its per-queue running
// counts and up-CPU census from the job and node tables. The
// equivalence tests rebuild before every scheduling pass on one of two
// twin servers; if the incremental state ever drifted from a
// from-scratch recompute, the twins' placement decisions would
// diverge.
func scratchRebuild(t *testing.T, s *Server) {
	t.Helper()
	if err := s.core.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for _, q := range s.queues {
		q.running = 0
	}
	for _, j := range s.list {
		if q, ok := s.queues[j.Queue]; ok && j.State == StateRunning {
			q.running++
		}
	}
	s.cpusUp = 0
	for _, n := range s.nodeList {
		if n.state != NodeDown {
			s.cpusUp += n.NP
		}
	}
}

// assertLedgersMatchScratch cross-checks the incremental state against
// a non-mutating recompute from the ground truth, then against the
// core's own rebuild.
func assertLedgersMatchScratch(t *testing.T, s *Server) {
	t.Helper()
	wantQ, wantCPUs := 0, 0
	wantRunning := map[string]bool{}
	for _, j := range s.list {
		switch j.State {
		case StateQueued:
			wantQ++
			wantCPUs += j.Nodes * j.PPN
		case StateRunning:
			wantRunning[j.ID] = true
		}
	}
	if st := s.QueueStats(); st.Queued != wantQ || st.QueuedCPUs != wantCPUs {
		t.Fatalf("queue census: got (%d jobs, %d cpus), scratch (%d, %d)",
			st.Queued, st.QueuedCPUs, wantQ, wantCPUs)
	}
	running := s.RunningJobs()
	if len(running) != len(wantRunning) {
		t.Fatalf("running ledger has %d jobs, scratch %d", len(running), len(wantRunning))
	}
	for _, j := range running {
		if !wantRunning[j.ID] {
			t.Fatalf("running ledger holds %s which is in state %v", j.ID, j.State)
		}
	}
	cpus, nodes := 0, 0
	for _, n := range s.nodeList {
		up := n.state != NodeDown && n.state != NodeOffline
		if n.state != NodeDown {
			cpus += n.NP
		}
		want := 0
		if up {
			nodes++
			want = n.NP
			for _, j := range n.busy {
				if j != nil {
					want--
				}
			}
		}
		if got := n.FreeCPUs(); got != want {
			t.Fatalf("free tree leaf for %s = %d, node has %d", n.Name, got, want)
		}
	}
	if s.cpusUp != cpus || s.AvailableNodes() != nodes {
		t.Fatalf("census: got (%d cpus, %d nodes), scratch (%d, %d)", s.cpusUp, s.AvailableNodes(), cpus, nodes)
	}
	if err := s.core.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

// pbsAction is one scripted step of the randomized workload; the same
// script drives both twin servers.
type pbsAction struct {
	at   time.Duration
	kind int // 0 submit, 1 hold, 2 release, 3 delete, 4 node down, 5 node up
	job  int // submission index for hold/release/delete
	node string
	req  SubmitRequest
}

// pbsScript generates a deterministic randomized workload: mixed-width
// jobs of 1..maxPPN CPUs per node, holds and releases, deletions, and
// node outages (which requeue rerunnable jobs and exercise the revival
// paths of the queue ledger).
func pbsScript(seed int64, nodes, jobs, maxPPN int) []pbsAction {
	rng := rand.New(rand.NewSource(seed))
	var script []pbsAction
	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		req := SubmitRequest{
			Name:    fmt.Sprintf("job%03d", i),
			Owner:   "eq",
			Nodes:   1 + rng.Intn(3),
			PPN:     1 + rng.Intn(maxPPN),
			Runtime: time.Duration(rng.Int63n(int64(2*time.Hour))) + 5*time.Minute,
			Rerun:   rng.Intn(4) != 0,
		}
		if rng.Intn(3) == 0 {
			req.Walltime = req.Runtime + time.Duration(rng.Int63n(int64(time.Hour)))
		}
		script = append(script, pbsAction{at: at, kind: 0, job: i, req: req})
		switch rng.Intn(10) {
		case 0:
			h := at + time.Duration(rng.Int63n(int64(30*time.Minute)))
			script = append(script, pbsAction{at: h, kind: 1, job: i})
			script = append(script, pbsAction{at: h + time.Duration(rng.Int63n(int64(2*time.Hour))), kind: 2, job: i})
		case 1:
			script = append(script, pbsAction{at: at + time.Duration(rng.Int63n(int64(time.Hour))), kind: 3, job: i})
		}
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("eqnode%02d", 1+rng.Intn(nodes))
		down := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		script = append(script, pbsAction{at: down, kind: 4, node: name})
		script = append(script, pbsAction{at: down + time.Duration(rng.Int63n(int64(time.Hour))) + time.Minute, kind: 5, node: name})
	}
	return script
}

// runPBSScript drives one server, whose node i has sizes[i] CPUs,
// through the script. When rebuild is set, every scheduling pass is
// preceded by a from-scratch state recompute.
func runPBSScript(t *testing.T, script []pbsAction, sizes []int, backfill, rebuild bool) *Server {
	t.Helper()
	eng := simtime.NewEngine()
	s := NewServer(eng, "eq.test")
	s.Backfill = backfill
	if rebuild {
		s.core.Override = func(pass func()) {
			scratchRebuild(t, s)
			pass()
		}
	}
	for i, np := range sizes {
		if _, err := s.AddNode(fmt.Sprintf("eqnode%02d", i+1), np, true); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, 0, len(script))
	for i := 0; i < len(script); i++ {
		if script[i].kind == 0 {
			ids = append(ids, "")
		}
	}
	for _, a := range script {
		a := a
		eng.After(a.at, func() {
			switch a.kind {
			case 0:
				j, err := s.Qsub(a.req)
				if err != nil {
					t.Errorf("qsub %s: %v", a.req.Name, err)
					return
				}
				ids[a.job] = j.ID
			case 1:
				_ = s.Qhold(ids[a.job]) // may legitimately race the start
			case 2:
				_ = s.Qrls(ids[a.job])
			case 3:
				_ = s.Qdel(ids[a.job])
			case 4:
				_ = s.SetNodeAvailable(a.node, false)
			case 5:
				_ = s.SetNodeAvailable(a.node, true)
			}
		})
	}
	eng.Run()
	return s
}

// TestPBSIncrementalMatchesScratchRecompute runs the identical
// randomized workload on twin servers — one scheduling off its
// incremental ledgers and free-slot profile, one rebuilding all of it
// from scratch before every pass — and requires byte-identical
// outcomes: same start times, same placements, same final states. The
// mixed cases use a 2/4/8-CPU node table and up to 8 CPUs per node, so
// the per-node fit is checked where node sizes differ.
func TestPBSIncrementalMatchesScratchRecompute(t *testing.T) {
	uniform := make([]int, 12)
	mixed := make([]int, 12)
	for i := range uniform {
		uniform[i] = 4
		mixed[i] = []int{2, 4, 8}[i%3]
	}
	for _, tc := range []struct {
		name   string
		seed   int64
		sizes  []int
		maxPPN int
	}{
		{"", 421, uniform, 4},
		{"mixed_", 977, mixed, 8},
	} {
		for _, backfill := range []bool{false, true} {
			name := tc.name + "fcfs"
			if backfill {
				name = tc.name + "backfill"
			}
			t.Run(name, func(t *testing.T) {
				script := pbsScript(tc.seed, len(tc.sizes), 120, tc.maxPPN)
				inc := runPBSScript(t, script, tc.sizes, backfill, false)
				ref := runPBSScript(t, script, tc.sizes, backfill, true)
				assertLedgersMatchScratch(t, inc)
				if len(inc.list) != len(ref.list) {
					t.Fatalf("job counts diverged: %d vs %d", len(inc.list), len(ref.list))
				}
				for i, a := range inc.list {
					b := ref.list[i]
					if a.State != b.State || a.StartTime != b.StartTime || a.EndTime != b.EndTime {
						t.Fatalf("job %s diverged: incremental (%v start=%v end=%v) vs scratch (%v start=%v end=%v)",
							a.ID, a.State, a.StartTime, a.EndTime, b.State, b.StartTime, b.EndTime)
					}
					if fmt.Sprint(a.ExecHost) != fmt.Sprint(b.ExecHost) {
						t.Fatalf("job %s placement diverged:\n%v\nvs\n%v", a.ID, a.ExecHost, b.ExecHost)
					}
				}
			})
		}
	}
}
