package pbs

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/simtime"
)

// NodeState mirrors pbsnodes state values.
type NodeState string

const (
	NodeFree      NodeState = "free"
	NodeExclusive NodeState = "job-exclusive"
	NodeOffline   NodeState = "offline"
	NodeDown      NodeState = "down"
)

// Node is a pbs_mom as seen by the server.
type Node struct {
	Name       string
	NP         int
	Properties []string
	state      NodeState
	idx        int // index in the scheduling core
	core       *sched.Core
	// busy[cpu] holds the job occupying that virtual processor (nil
	// when the slot is free).
	busy []*Job
}

// State derives the reported state: offline/down are administrative or
// connectivity conditions; otherwise free vs job-exclusive depends on
// occupancy.
func (n *Node) State() NodeState {
	if n.state == NodeOffline || n.state == NodeDown {
		return n.state
	}
	if n.UsedCPUs() >= n.NP {
		return NodeExclusive
	}
	return NodeFree
}

// FreeCPUs counts unoccupied virtual processors (0 when offline/down).
func (n *Node) FreeCPUs() int { return n.core.Free(n.idx) }

// UsedCPUs counts occupied virtual processors.
func (n *Node) UsedCPUs() int { return n.core.Used(n.idx) }

// Jobs lists IDs of jobs with slots on this node, PBS-style
// "cpu/jobid" pairs sorted by CPU.
func (n *Node) Jobs() []string {
	out := make([]string, 0, n.UsedCPUs())
	for c, j := range n.busy {
		if j != nil {
			out = append(out, fmt.Sprintf("%d/%s", c, j.ID))
		}
	}
	return out
}

// Server is the pbs_server plus a strict-FCFS scheduler (the paper's
// deployment ran stock OSCAR scheduling: first-come first-served, no
// backfill — which is exactly what lets the head of the queue wedge
// the whole system and makes the "stuck" signal meaningful).
//
// Scheduling runs on the shared core (internal/sched), which keeps the
// queued and running ledgers, the free-CPU profile and the census
// incrementally; the server adds Torque's queues, holds, feasibility
// check and CPU-slot bookkeeping, so a scheduling pass or a controller
// poll never rescans the full job history.
type Server struct {
	eng *simtime.Engine
	// domain is the cluster FQDN ("eridani.qgg.hud.ac.uk"): the head
	// node's own name, the suffix of job IDs, and the domain compute
	// node names are qualified with.
	domain string

	core     *sched.Core
	list     []*Job // by core handle: submission order, SeqNo-1
	nodes    map[string]*Node
	nodeList []*Node // by core node index: registration order

	queues       map[string]*Queue
	defaultQueue string

	// cpusUp is the O(1) form of TotalCPUs.
	cpusUp int

	// npHist[c] counts configured nodes with NP == c (regardless of
	// state), giving Qsub's feasibility check without a node scan.
	npHist []int

	// Backfill enables reservation-based EASY backfill: later jobs may
	// jump a blocked queue head only when they cannot delay its
	// earliest reservation (shadow time). The paper's system has it
	// off. An earlier revision shipped unreserved greedy backfill
	// here, which let a stream of narrow jobs starve a wide head job
	// indefinitely.
	Backfill bool

	// Hooks for the metrics recorder and the controller. OnJobRequeue
	// fires when a running rerunnable job loses its node and returns
	// to the queue — the recorder needs it to stop busy-core
	// integration between the attempts.
	OnJobStart   func(*Job)
	OnJobEnd     func(*Job)
	OnJobRequeue func(*Job)

	// BaseDate maps virtual time zero to a wall-clock date for the
	// qstat/pbsnodes renderings. The default matches the paper's
	// trace captures (April 2010).
	BaseDate time.Time
}

// NewServer creates a PBS server on the simulation engine. fqdn is the
// cluster name used in job IDs and node qualification
// ("eridani.qgg.hud.ac.uk").
func NewServer(eng *simtime.Engine, fqdn string) *Server {
	s := &Server{
		eng:          eng,
		domain:       fqdn,
		nodes:        make(map[string]*Node),
		queues:       make(map[string]*Queue),
		defaultQueue: "default",
		BaseDate:     time.Date(2010, time.April, 16, 8, 0, 0, 0, time.UTC),
	}
	s.core = sched.New(eng, &s.Backfill, func(h int) bool { return s.schedulable(s.list[h]) }, s.started)
	if _, err := s.CreateQueue("default"); err != nil {
		panic(err) // cannot happen: fresh map
	}
	return s
}

// Name returns the server's FQDN ("eridani.qgg.hud.ac.uk").
func (s *Server) Name() string { return s.domain }

// Domain returns the FQDN suffix.
func (s *Server) Domain() string { return s.domain }

// AddNode registers a compute node. Nodes join offline when avail is
// false (e.g. they are currently booted into Windows).
func (s *Server) AddNode(name string, np int, avail bool) (*Node, error) {
	if _, ok := s.nodes[name]; ok {
		return nil, fmt.Errorf("pbs: node %s already registered", name)
	}
	if np <= 0 {
		return nil, fmt.Errorf("pbs: node %s: bad np %d", name, np)
	}
	n := &Node{Name: name, NP: np, Properties: []string{"all"}, busy: make([]*Job, np), core: s.core}
	if !avail {
		n.state = NodeDown
	} else {
		s.cpusUp += np
	}
	n.idx = s.core.AddNode(np, avail)
	s.nodes[name] = n
	s.nodeList = append(s.nodeList, n)
	for len(s.npHist) <= np {
		s.npHist = append(s.npHist, 0)
	}
	s.npHist[np]++
	if avail {
		s.core.Kick()
	}
	return n, nil
}

// Node returns a registered node.
func (s *Server) Node(name string) (*Node, error) {
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("pbs: unknown node %s", name)
	}
	return n, nil
}

// Nodes lists nodes in registration order.
func (s *Server) Nodes() []*Node { return append(make([]*Node, 0, len(s.nodeList)), s.nodeList...) }

// setNodeState applies an administrative/connectivity state change and
// keeps the up-CPU counter and the core's availability consistent.
func (s *Server) setNodeState(n *Node, st NodeState) {
	if (n.state == NodeDown) != (st == NodeDown) {
		if st == NodeDown {
			s.cpusUp -= n.NP
		} else {
			s.cpusUp += n.NP
		}
	}
	n.state = st
	s.core.SetUp(n.idx, st != NodeDown && st != NodeOffline)
}

// SetNodeAvailable brings a node up (it re-registered after booting
// Linux) or marks it down (it rebooted away). Jobs running on a node
// that goes down are requeued if rerunnable, otherwise killed.
func (s *Server) SetNodeAvailable(name string, avail bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("pbs: unknown node %s", name)
	}
	if avail {
		s.setNodeState(n, NodeFree)
		s.core.Kick()
		return nil
	}
	s.setNodeState(n, NodeDown)
	// Collect affected jobs before mutating — in slot order, so the
	// interrupt/requeue sequence (and the hooks it fires) is
	// deterministic across runs.
	var affected []*Job
	for _, j := range n.busy {
		if j != nil && !slices.Contains(affected, j) {
			affected = append(affected, j)
		}
	}
	for _, j := range affected {
		s.interruptJob(j)
	}
	return nil
}

// SetNodeOffline administratively drains a node without killing jobs;
// no new work is placed on it.
func (s *Server) SetNodeOffline(name string, offline bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("pbs: unknown node %s", name)
	}
	if offline {
		s.setNodeState(n, NodeOffline)
	} else {
		s.setNodeState(n, NodeFree)
		s.core.Kick()
	}
	return nil
}

// interruptJob handles a running job losing a node. A rerunnable job
// requeues; anything else dies mid-run and is marked failed so the
// accounting upstream cannot mistake it for a completed job.
func (s *Server) interruptJob(j *Job) {
	s.releaseSlots(j)
	if j.Rerunnable {
		s.core.Requeue(j.SeqNo - 1)
		j.State = StateQueued
		j.ExecHost = nil
		if s.OnJobRequeue != nil {
			s.OnJobRequeue(j)
		}
		s.core.Kick()
		return
	}
	s.core.Stop(j.SeqNo - 1)
	j.failed = true
	s.ended(j)
	s.core.Kick()
}

// Qsub submits a job. Requests that could never run on the configured
// node table are rejected, as Torque does ("cannot locate feasible
// nodes") — down nodes still count as configured, because a hybrid
// cluster's missing nodes may boot back at any time.
func (s *Server) Qsub(req SubmitRequest) (*Job, error) {
	if err := req.normalise(); err != nil {
		return nil, err
	}
	feasible := 0
	for np := req.PPN; np < len(s.npHist); np++ {
		feasible += s.npHist[np]
	}
	if feasible < req.Nodes {
		return nil, fmt.Errorf("pbs: qsub: cannot locate feasible nodes (nodes=%d:ppn=%d, %d candidates)",
			req.Nodes, req.PPN, feasible)
	}
	if req.Queue == "" {
		req.Queue = s.defaultQueue
	}
	q, ok := s.queues[req.Queue]
	if !ok {
		return nil, fmt.Errorf("pbs: qsub: unknown queue %q", req.Queue)
	}
	if !q.enabled {
		return nil, fmt.Errorf("pbs: qsub: queue %q is not enabled", req.Queue)
	}
	seq := len(s.list) + 1
	j := &Job{
		ID:         fmt.Sprintf("%d.%s", seq, s.Name()),
		SeqNo:      seq,
		Name:       req.Name,
		Owner:      req.Owner,
		State:      StateQueued,
		Queue:      req.Queue,
		queue:      q,
		Server:     s.Name(),
		Nodes:      req.Nodes,
		PPN:        req.PPN,
		Runtime:    req.Runtime,
		Walltime:   req.Walltime,
		Priority:   req.Priority,
		Rerunnable: req.Rerun,
		JoinOE:     req.JoinOE,
		OutputPath: req.Output,
		QTime:      s.eng.Now(),
		Exec:       req.Exec,
		OnEnd:      req.OnEnd,
	}
	s.list = append(s.list, j)
	// The projected end bounds when the job releases its slots: the
	// walltime contract when given (it is killed there at the latest),
	// otherwise the known runtime.
	hold := j.Runtime
	if j.Walltime > 0 {
		hold = j.Walltime
	}
	s.core.Submit(int64(j.SeqNo), hold, sched.Demand{Nodes: j.Nodes, PPN: j.PPN})
	s.core.Kick()
	return j, nil
}

// QsubScript parses a job script and submits it; owner is the
// submitting user. The script's commands are not interpreted — the
// Exec callback carries simulated behaviour.
func (s *Server) QsubScript(script, owner string, runtime time.Duration, exec func(hosts []string)) (*Job, error) {
	parsed, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	req := parsed.Request
	req.Owner = owner
	req.Runtime = runtime
	req.Exec = exec
	return s.Qsub(req)
}

// Qdel removes a queued or held job or kills a running one. Either way
// the job ends killed and the end hooks fire.
func (s *Server) Qdel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	switch j.State {
	case StateQueued, StateHeld:
		s.core.Dequeue(j.SeqNo - 1)
		j.killedAtLimit = true
		s.ended(j)
	case StateRunning:
		s.finishJob(j, true)
	}
	return nil
}

// Qhold places a user hold on a queued job (state H); held jobs are
// not scheduled. Running jobs cannot be held in this model.
func (s *Server) Qhold(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	if j.State != StateQueued {
		return fmt.Errorf("pbs: qhold: job %s is %s, not queued", id, j.State)
	}
	j.State = StateHeld
	s.core.Hold(j.SeqNo - 1)
	return nil
}

// Qrls releases a held job back to the queue.
func (s *Server) Qrls(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	if j.State != StateHeld {
		return fmt.Errorf("pbs: qrls: job %s is %s, not held", id, j.State)
	}
	j.State = StateQueued
	s.core.Unhold(j.SeqNo - 1)
	s.core.Kick()
	return nil
}

// Job returns a job by ID. The sequence number before the first dot
// indexes the job list; the ID must then match exactly, so "01.<fqdn>"
// or a foreign domain is as unknown as a number never issued.
func (s *Server) Job(id string) (*Job, error) {
	seq, _, _ := strings.Cut(id, ".")
	if n, err := strconv.Atoi(seq); err == nil && n >= 1 && n <= len(s.list) && s.list[n-1].ID == id {
		return s.list[n-1], nil
	}
	return nil, fmt.Errorf("pbs: unknown job %s", id)
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job { return append(make([]*Job, 0, len(s.list)), s.list...) }

// byHandle maps core handles to jobs.
func (s *Server) byHandle(hs []int) []*Job {
	out := make([]*Job, len(hs))
	for i, h := range hs {
		out[i] = s.list[h]
	}
	return out
}

// QueuedJobs returns jobs waiting to run, in submission order.
func (s *Server) QueuedJobs() []*Job { return s.byHandle(s.core.Queued()) }

// RunningJobs returns jobs currently executing, in submission order.
func (s *Server) RunningJobs() []*Job { return s.byHandle(s.core.Running()) }

// Stats is the O(1) scheduler census: what the controller's polling
// cycle needs, without rendering or rescanning anything.
type Stats struct {
	Running    int // jobs in state R
	Queued     int // jobs in state Q
	QueuedCPUs int // total CPUs requested by state-Q jobs
	IdleNodes  int // free nodes with no CPU in use
}

// QueueStats returns the maintained census counters.
func (s *Server) QueueStats() Stats {
	n := s.core.Census()
	return Stats{Running: n.Running, Queued: n.Waiting, QueuedCPUs: n.WaitCores, IdleNodes: n.IdleNodes}
}

// FirstQueued returns the oldest job in state Q, or nil when the queue
// is empty — the detector's head-of-line candidate.
func (s *Server) FirstQueued() *Job {
	if h := s.core.First(); h >= 0 {
		return s.list[h]
	}
	return nil
}

// TotalCPUs sums np over nodes that are not down.
func (s *Server) TotalCPUs() int { return s.cpusUp }

// AvailableNodes counts nodes that are up (free or busy).
func (s *Server) AvailableNodes() int { return s.core.Census().UpNodes }

// started occupies CPU slots for a job the core has granted nodes and
// starts it. Each node's slots are taken from its highest free CPU
// down, which is the exec_host order Torque prints.
func (s *Server) started(h int, g []sched.Grant) {
	j := s.list[h]
	j.ExecHost = make([]ExecSlot, 0, j.Nodes*j.PPN)
	var hosts []string
	for _, x := range g {
		n := s.nodeList[x.Node]
		for c := n.NP - 1; x.N > 0; c-- {
			if n.busy[c] == nil {
				n.busy[c] = j
				j.ExecHost = append(j.ExecHost, ExecSlot{Node: n.Name, CPU: c})
				x.N--
			}
		}
		if j.Exec != nil {
			hosts = append(hosts, n.Name)
		}
	}
	j.queue.running++
	j.State = StateRunning
	j.StartTime = s.eng.Now()
	if s.OnJobStart != nil {
		s.OnJobStart(j)
	}
	if j.Exec != nil {
		j.Exec(hosts)
	}
	dur := j.Runtime
	killed := false
	if j.Walltime > 0 && dur > j.Walltime {
		dur = j.Walltime
		killed = true
	}
	s.eng.After(dur, func() {
		if j.State != StateRunning {
			return // interrupted in the meantime (node went down)
		}
		j.killedAtLimit = killed
		s.finishJob(j, false)
	})
}

func (s *Server) finishJob(j *Job, killed bool) {
	if killed {
		j.killedAtLimit = true
	}
	s.releaseSlots(j)
	s.core.Stop(j.SeqNo - 1)
	s.ended(j)
	s.core.Kick()
}

// ended completes a job and fires the end hooks.
func (s *Server) ended(j *Job) {
	j.State = StateComplete
	j.EndTime = s.eng.Now()
	if s.OnJobEnd != nil {
		s.OnJobEnd(j)
	}
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
}

// releaseSlots frees a running job's CPU slots, walking its exec_host
// alongside the core's grants (one run of slots per granted node).
func (s *Server) releaseSlots(j *Job) {
	k := 0
	for _, x := range s.core.Grants(j.SeqNo - 1) {
		busy := s.nodeList[x.Node].busy
		for end := k + x.N; k < end; k++ {
			busy[j.ExecHost[k].CPU] = nil
		}
	}
	j.queue.running--
}

// stamp renders a virtual time as the wall-clock string PBS prints.
func (s *Server) stamp(t time.Duration) string {
	return s.BaseDate.Add(t).Format(time.ANSIC)
}
