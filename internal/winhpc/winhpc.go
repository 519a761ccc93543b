// Package winhpc simulates the Microsoft Windows HPC Server 2008 R2
// job scheduler that runs the Windows side of the hybrid cluster.
// Unlike Torque (which the paper's detector scrapes as text), Windows
// HPC ships an SDK, so this package exposes a programmatic API —
// mirroring how the paper's Windows-side detector and communicator
// were built against the HPC Pack SDK.
//
// Scheduling follows the product's "Queued" policy: first-come
// first-served over resource units, with an optional backfill switch.
// The default resource unit is the core; node-exclusive jobs take
// whole nodes, which is what MPI and the MATLAB MDCS case study use.
package winhpc

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/simtime"
)

// JobState follows the HPC Pack state machine (condensed to the states
// the middleware observes).
type JobState uint8

const (
	JobQueued JobState = iota
	JobRunning
	JobFinished
	JobFailed
	JobCanceled
)

// String names the state like the HPC Pack UI.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "Queued"
	case JobRunning:
		return "Running"
	case JobFinished:
		return "Finished"
	case JobFailed:
		return "Failed"
	case JobCanceled:
		return "Canceled"
	default:
		return "Unknown"
	}
}

// ResourceUnit selects what a job's Min/Max counts mean.
type ResourceUnit uint8

const (
	// UnitCore schedules individual cores anywhere in the cluster.
	UnitCore ResourceUnit = iota
	// UnitNode schedules whole nodes exclusively.
	UnitNode
)

// String names the unit.
func (u ResourceUnit) String() string {
	if u == UnitNode {
		return "Node"
	}
	return "Core"
}

// Allocation records cores granted on one node.
type Allocation struct {
	Node  string
	Cores int
}

// Job is a Windows HPC job. The simulation uses a single required
// resource count rather than the product's min–max range; grow/shrink
// is out of scope for the middleware's behaviour.
type Job struct {
	ID       int
	Name     string
	Owner    string
	Template string
	State    JobState
	Unit     ResourceUnit
	Count    int // cores (UnitCore) or nodes (UnitNode)

	Runtime    time.Duration
	SubmitTime time.Duration
	StartTime  time.Duration
	EndTime    time.Duration

	Rerunnable bool
	Priority   Priority
	Alloc      []Allocation

	// Exec runs at job start with the allocated node names; OnEnd
	// fires at completion, failure or cancellation.
	Exec  func(nodes []string)
	OnEnd func(*Job)
}

// Cores returns the total cores the job occupies once allocated, or
// would occupy given 0 knowledge of node sizes for UnitNode jobs.
func (j *Job) Cores(coresPerNode int) int {
	if j.Unit == UnitCore {
		return j.Count
	}
	return j.Count * coresPerNode
}

// AllocatedNodes lists distinct node names in allocation order.
func (j *Job) AllocatedNodes() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range j.Alloc {
		if !seen[a.Node] {
			seen[a.Node] = true
			out = append(out, a.Node)
		}
	}
	return out
}

// NodeState follows the HPC Pack node states the middleware cares
// about.
type NodeState uint8

const (
	NodeOnline NodeState = iota
	NodeOffline
	NodeUnreachable
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeOffline:
		return "Offline"
	case NodeUnreachable:
		return "Unreachable"
	default:
		return "Online"
	}
}

// Node is a compute node from the scheduler's perspective.
type Node struct {
	Name     string
	Cores    int
	Template string
	state    NodeState
	idx      int // index in the scheduling core
	core     *sched.Core
}

// State returns the node state.
func (n *Node) State() NodeState { return n.state }

// FreeCores returns schedulable cores (0 unless online).
func (n *Node) FreeCores() int { return n.core.Free(n.idx) }

// UsedCores returns cores currently allocated.
func (n *Node) UsedCores() int { return n.core.Used(n.idx) }

// Priority follows the HPC Pack five-level job priority.
type Priority int8

const (
	PriorityLowest      Priority = -2
	PriorityBelowNormal Priority = -1
	PriorityNormal      Priority = 0
	PriorityAboveNormal Priority = 1
	PriorityHighest     Priority = 2
)

// String names the priority level.
func (p Priority) String() string {
	switch p {
	case PriorityLowest:
		return "Lowest"
	case PriorityBelowNormal:
		return "BelowNormal"
	case PriorityAboveNormal:
		return "AboveNormal"
	case PriorityHighest:
		return "Highest"
	default:
		return "Normal"
	}
}

// JobSpec is the submission request (a subset of the SDK's
// ISchedulerJob properties).
type JobSpec struct {
	Name     string
	Owner    string
	Template string
	Unit     ResourceUnit
	Count    int
	Runtime  time.Duration
	Rerun    bool
	Priority Priority
	Exec     func(nodes []string)
	OnEnd    func(*Job)
}

// Scheduler is the head-node scheduler service.
//
// Scheduling runs on the shared core (internal/sched), which keeps the
// queued and running ledgers, the free-core profiles and the census
// incrementally; the scheduler adds HPC Pack's priority order, resource
// units, node states and cancellation, so neither a kick nor a
// Snapshot poll rescans the job history.
type Scheduler struct {
	eng     *simtime.Engine
	cluster string

	core     *sched.Core
	jobs     []*Job // by core handle: submission order, ID-1
	nodes    map[string]*Node
	nodeList []*Node // by core node index: registration order

	// Census counters maintained on node mutations.
	allCores int // every configured node, any state (submission cap)
	coresUp  int // nodes not unreachable (TotalCores)
	cpn      int // cached typicalCores()

	// coresHist counts configured nodes by core count, for the cached
	// typicalCores recompute on AddNode.
	coresHist map[int]int

	// Backfill enables the product's "backfilling" option, modelled as
	// reservation-based EASY backfill: a job may jump the blocked
	// queue head only when it cannot delay the head's earliest
	// reservation. Off in the paper's deployment. An earlier revision
	// shipped unreserved greedy backfill here, which let a stream of
	// narrow jobs starve a blocked wide job indefinitely.
	Backfill bool

	// OnJobRequeue fires when a running rerunnable job loses a node
	// and returns to the queue; the metrics recorder needs it to stop
	// busy-core integration between attempts.
	OnJobStart   func(*Job)
	OnJobEnd     func(*Job)
	OnJobRequeue func(*Job)
}

// NewScheduler creates the scheduler for a named cluster.
func NewScheduler(eng *simtime.Engine, cluster string) *Scheduler {
	s := &Scheduler{
		eng:       eng,
		cluster:   cluster,
		nodes:     make(map[string]*Node),
		coresHist: make(map[int]int),
		cpn:       4,
	}
	s.core = sched.New(eng, &s.Backfill, nil, s.started)
	return s
}

// ClusterName returns the head node name.
func (s *Scheduler) ClusterName() string { return s.cluster }

// AddNode registers a compute node; online=false models a node
// currently booted into the other OS.
func (s *Scheduler) AddNode(name string, cores int, online bool) (*Node, error) {
	if _, ok := s.nodes[name]; ok {
		return nil, fmt.Errorf("winhpc: node %s already exists", name)
	}
	if cores <= 0 {
		return nil, fmt.Errorf("winhpc: node %s: bad core count %d", name, cores)
	}
	n := &Node{Name: name, Cores: cores, Template: "Default ComputeNode Template", core: s.core}
	if !online {
		n.state = NodeUnreachable
	} else {
		s.coresUp += cores
	}
	n.idx = s.core.AddNode(cores, online)
	s.nodes[name] = n
	s.nodeList = append(s.nodeList, n)
	s.allCores += cores
	s.coresHist[cores]++
	s.recomputeTypicalCores()
	if online {
		s.core.Kick()
	}
	return n, nil
}

// setNodeState applies a state change and keeps the up-core counter
// and the core's availability consistent.
func (s *Scheduler) setNodeState(n *Node, st NodeState) {
	if (n.state == NodeUnreachable) != (st == NodeUnreachable) {
		if st == NodeUnreachable {
			s.coresUp -= n.Cores
		} else {
			s.coresUp += n.Cores
		}
	}
	n.state = st
	s.core.SetUp(n.idx, st == NodeOnline)
}

// Node returns a node by name.
func (s *Scheduler) Node(name string) (*Node, error) {
	n, ok := s.nodes[name]
	if !ok {
		return nil, fmt.Errorf("winhpc: unknown node %s", name)
	}
	return n, nil
}

// Nodes lists nodes in registration order.
func (s *Scheduler) Nodes() []*Node { return append(make([]*Node, 0, len(s.nodeList)), s.nodeList...) }

// SetNodeOnline flips a node between Online and Unreachable (the state
// a node shows when it has rebooted into Linux). Running jobs lose
// their cores; rerunnable jobs requeue, others fail.
func (s *Scheduler) SetNodeOnline(name string, online bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("winhpc: unknown node %s", name)
	}
	if online {
		s.setNodeState(n, NodeOnline)
		s.core.Kick()
		return nil
	}
	s.setNodeState(n, NodeUnreachable)
	// Collect victims from the live running ledger, in submission
	// order, before mutating anything.
	var victims []*Job
	for _, h := range s.core.Running() {
		for _, g := range s.core.Grants(h) {
			if g.Node == n.idx {
				victims = append(victims, s.jobs[h])
				break
			}
		}
	}
	for _, j := range victims {
		if j.Rerunnable {
			s.core.Requeue(j.ID - 1)
			j.State = JobQueued
			j.Alloc = nil
			if s.OnJobRequeue != nil {
				s.OnJobRequeue(j)
			}
		} else {
			s.core.Stop(j.ID - 1)
			s.ended(j, JobFailed)
		}
	}
	s.core.Kick()
	return nil
}

// SetNodeOffline administratively drains a node (no new allocations,
// running jobs continue).
func (s *Scheduler) SetNodeOffline(name string, offline bool) error {
	n, ok := s.nodes[name]
	if !ok {
		return fmt.Errorf("winhpc: unknown node %s", name)
	}
	if offline {
		s.setNodeState(n, NodeOffline)
	} else {
		s.setNodeState(n, NodeOnline)
		s.core.Kick()
	}
	return nil
}

// SubmitJob validates and enqueues a job. Requests exceeding the
// configured node table are rejected at submission (HPC Pack validates
// resource requests against the cluster's node groups); unreachable
// nodes still count, since they may come back.
func (s *Scheduler) SubmitJob(spec JobSpec) (*Job, error) {
	if spec.Count <= 0 {
		spec.Count = 1
	}
	if spec.Name == "" {
		spec.Name = "Job"
	}
	if spec.Owner == "" {
		spec.Owner = "HPC\\user"
	}
	if spec.Runtime < 0 {
		return nil, fmt.Errorf("winhpc: negative runtime")
	}
	d := sched.Demand{Cores: spec.Count}
	switch spec.Unit {
	case UnitNode:
		if spec.Count > len(s.nodes) {
			return nil, fmt.Errorf("winhpc: job needs %d nodes, cluster has %d", spec.Count, len(s.nodes))
		}
		d = sched.Demand{Nodes: spec.Count}
	default:
		if spec.Count > s.allCores {
			return nil, fmt.Errorf("winhpc: job needs %d cores, cluster has %d", spec.Count, s.allCores)
		}
	}
	j := &Job{
		ID:         len(s.jobs) + 1,
		Name:       spec.Name,
		Owner:      spec.Owner,
		Template:   spec.Template,
		State:      JobQueued,
		Unit:       spec.Unit,
		Count:      spec.Count,
		Runtime:    spec.Runtime,
		SubmitTime: s.eng.Now(),
		Rerunnable: spec.Rerun,
		Priority:   spec.Priority,
		Exec:       spec.Exec,
		OnEnd:      spec.OnEnd,
	}
	s.jobs = append(s.jobs, j)
	// The HPC job model carries no separate walltime estimate, so the
	// runtime bounds how long a start holds its cores.
	s.core.Submit(queueKey(j), j.Runtime, d)
	s.core.Kick()
	return j, nil
}

// CancelJob cancels a queued or running job.
func (s *Scheduler) CancelJob(id int) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	switch j.State {
	case JobQueued:
		s.core.Dequeue(id - 1)
		s.ended(j, JobCanceled)
	case JobRunning:
		s.core.Stop(id - 1)
		s.ended(j, JobCanceled)
		s.core.Kick()
	default:
		return fmt.Errorf("winhpc: job %d already %s", id, j.State)
	}
	return nil
}

// Job returns a job by ID.
func (s *Scheduler) Job(id int) (*Job, error) {
	if id < 1 || id > len(s.jobs) {
		return nil, fmt.Errorf("winhpc: unknown job %d", id)
	}
	return s.jobs[id-1], nil
}

// Jobs returns all jobs in submission order.
func (s *Scheduler) Jobs() []*Job { return append(make([]*Job, 0, len(s.jobs)), s.jobs...) }

// queueKey orders the queue ledger: priority descending (the HPC Pack
// "Queued" policy), submission order within a level.
func queueKey(j *Job) int64 { return -int64(j.Priority)<<32 + int64(j.ID) }

// byHandle maps core handles to jobs.
func (s *Scheduler) byHandle(hs []int) []*Job {
	out := make([]*Job, len(hs))
	for i, h := range hs {
		out[i] = s.jobs[h]
	}
	return out
}

// QueuedJobs returns waiting jobs in scheduling order: priority
// descending (the HPC Pack "Queued" policy), submission order within
// a level.
func (s *Scheduler) QueuedJobs() []*Job { return s.byHandle(s.core.Queued()) }

// RunningJobs returns executing jobs in submission order.
func (s *Scheduler) RunningJobs() []*Job { return s.byHandle(s.core.Running()) }

// TotalCores sums cores over nodes that are not unreachable.
func (s *Scheduler) TotalCores() int { return s.coresUp }

// OnlineNodes counts online nodes.
func (s *Scheduler) OnlineNodes() int { return s.core.Census().UpNodes }

// QueueSnapshot is the condensed queue view the detector polls through
// the SDK (job counts plus the head-of-queue demand).
type QueueSnapshot struct {
	Running      int
	Queued       int
	FirstQueued  int    // job ID, 0 when the queue is empty
	FirstName    string // job name of the queue head
	NeededCores  int    // cores the queue head requires
	OnlineCores  int
	PendingCores int // total cores requested by all queued jobs
}

// Snapshot builds the queue view from the maintained counters — O(1)
// apart from skipping stale entries ahead of the queue head.
func (s *Scheduler) Snapshot() QueueSnapshot {
	cpn := s.typicalCores()
	n := s.core.Census()
	snap := QueueSnapshot{
		OnlineCores:  n.UpCores,
		Running:      n.Running,
		Queued:       n.Waiting,
		PendingCores: n.WaitCores + n.WaitWhole*cpn,
	}
	// The queue head follows scheduling order (priority first), since
	// that is the job whose demand a dual-boot controller must satisfy.
	if h := s.core.First(); h >= 0 {
		head := s.jobs[h]
		snap.FirstQueued = head.ID
		snap.FirstName = head.Name
		snap.NeededCores = head.Cores(cpn)
	}
	return snap
}

// typicalCores returns the modal node size for UnitNode→core
// conversion (cached; recomputed when nodes register). The Eridani
// nodes are uniform quad-cores.
func (s *Scheduler) typicalCores() int { return s.cpn }

// recomputeTypicalCores rebuilds the cached modal node size from the
// core-count histogram, smallest size winning ties, 4 when the node
// table is empty.
func (s *Scheduler) recomputeTypicalCores() {
	best, bestCount := 4, 0
	keys := make([]int, 0, len(s.coresHist))
	for k := range s.coresHist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if s.coresHist[k] > bestCount {
			best, bestCount = k, s.coresHist[k]
		}
	}
	s.cpn = best
}

// started records the allocation the core granted and starts the job.
func (s *Scheduler) started(h int, g []sched.Grant) {
	j := s.jobs[h]
	j.Alloc = slices.Grow(j.Alloc, len(g))
	for _, x := range g {
		j.Alloc = append(j.Alloc, Allocation{Node: s.nodeList[x.Node].Name, Cores: x.N})
	}
	j.State = JobRunning
	j.StartTime = s.eng.Now()
	if s.OnJobStart != nil {
		s.OnJobStart(j)
	}
	if j.Exec != nil {
		j.Exec(j.AllocatedNodes())
	}
	s.eng.After(j.Runtime, func() {
		if j.State != JobRunning {
			return
		}
		s.core.Stop(h)
		s.ended(j, JobFinished)
		s.core.Kick()
	})
}

// ended moves a job to a terminal state and fires the end hooks.
func (s *Scheduler) ended(j *Job, st JobState) {
	j.State = st
	j.EndTime = s.eng.Now()
	if s.OnJobEnd != nil {
		s.OnJobEnd(j)
	}
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
}
