// Package sched is the scheduling core both head schedulers share:
// the Torque/PBS server (internal/pbs) and the Windows HPC scheduler
// (internal/winhpc) are front ends over it. The core owns the ordered
// queue ledger, the running ledger, pass coalescing, the FCFS/EASY
// pass with its reservation and backfill test, and the segment trees
// that find the next node a demand fits on. The front ends keep what
// differs: job and node types, text formats, queue order keys, queue
// eligibility and what a start means to the job.
//
// The core addresses nodes and jobs by dense index. A job's handle is
// its submission index, counting from 0; a node's index is its
// registration index. Name lookups happen in the front ends, at the
// API boundary.
package sched

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/simtime"
)

// Demand is what a job asks of the node table, in one of three
// shapes: Nodes nodes with PPN free cores each (PBS nodes=N:ppn=M);
// Nodes whole nodes when PPN is 0 (HPC Pack node unit); or Cores cores
// anywhere when Nodes is 0 (HPC Pack core unit).
type Demand struct {
	Nodes, PPN, Cores int
}

// per is the free cores node-shaped demand needs on a node of the
// given capacity.
func (d Demand) per(capacity int) int {
	if d.PPN > 0 {
		return d.PPN
	}
	return capacity
}

// Grant is cores granted to a job on one node.
type Grant struct {
	Node, N int
}

// Census is the core's O(1) counters.
type Census struct {
	Running   int // jobs holding grants
	Waiting   int // queued jobs, not held
	WaitCores int // cores waiting jobs ask for as nodes×PPN or Cores
	WaitWhole int // whole nodes waiting jobs ask for
	UpNodes   int // schedulable nodes
	UpCores   int // capacity of schedulable nodes
}

const (
	waiting uint8 = iota
	held
	running
	gone
)

// job is the core's record of one submission.
type job struct {
	key     int64         // queue order, ascending
	hold    time.Duration // upper bound on how long a start holds its grants
	end     time.Duration // projected release of the current start
	d       Demand
	run     int32 // slot in the running ledger while running
	state   uint8
	inQueue bool // an entry, live or stale, sits in the queue ledger
}

func (j *job) queued() bool { return j.state == waiting || j.state == held }

// node is one node's capacity, granted cores and availability.
type node struct {
	cap, used int
	up        bool
}

// runSlot is one running job and its grants, stored at start so the
// reservation replay reads plain arrays.
type runSlot struct {
	h int32
	g []Grant
}

// Core is the scheduling state of one head scheduler.
type Core struct {
	eng      *simtime.Engine
	backfill *bool // the front end's Backfill switch
	eligible func(h int) bool
	onStart  func(h int, g []Grant)

	// Override, when set, runs in place of each scheduling pass and is
	// handed the real one. Tests use it to rebuild state before a pass
	// or to replay historical policies.
	Override func(pass func())

	jobs []job

	// queue holds queued (waiting or held) jobs in key order. Entries
	// whose job has moved on are stale until compact sweeps them once
	// they are the majority; dead counts them, and head is the first
	// possibly-live entry. A requeued job revives its stale entry in
	// place instead of duplicating it.
	queue []int32
	dead  int
	head  int

	// run holds running jobs in start order; removal swaps the tail
	// into the vacated slot and parks the removed grants there for
	// reuse.
	run []runSlot

	// rel lists releases for the reservation replay: rel[:sorted] in
	// (end, handle) order as of the last call to order, then the jobs
	// started since. Entries whose job has stopped or restarted are
	// stale until order drops them; start calls it once stale entries
	// could be the majority, as compact does for the queue.
	rel    []release
	sorted int

	nodes []node

	// free and idle are max segment trees over node indices: effective
	// free cores (0 when not up), and 1 for up nodes with nothing
	// granted. freeTotal and idleN are their leaf sums.
	free, idle       maxTree
	freeTotal, idleN int

	// atLeast[p] counts up nodes with at least p free cores (p ≥ 1), so
	// a nodes×PPN demand that cannot fit fails without a tree walk.
	atLeast []int

	n Census

	pending bool
	passFn  func()

	// Scratch reused across passes.
	gbuf   []Grant
	relBuf []release
	rsv    reservation
}

// New creates a core on the engine. backfill points at the front
// end's policy switch; eligible, when non-nil, may veto a waiting job
// for one pass without blocking the rest; start runs once the core has
// granted a job its cores and moved it to the running ledger.
func New(eng *simtime.Engine, backfill *bool, eligible func(h int) bool, start func(h int, g []Grant)) *Core {
	c := &Core{eng: eng, backfill: backfill, eligible: eligible, onStart: start}
	c.passFn = c.runPass
	return c
}

// AddNode registers a node with the given core count and returns its
// index.
func (c *Core) AddNode(capacity int, up bool) int {
	i := len(c.nodes)
	c.nodes = append(c.nodes, node{cap: capacity})
	c.free.grow(i + 1)
	c.idle.grow(i + 1)
	if k := capacity + 1 - len(c.atLeast); k > 0 {
		c.atLeast = append(c.atLeast, make([]int, k)...)
	}
	c.SetUp(i, up)
	return i
}

// SetUp marks node i schedulable or not. Grants on it stay until
// their jobs stop.
func (c *Core) SetUp(i int, up bool) {
	n := &c.nodes[i]
	if n.up == up {
		return
	}
	n.up = up
	if up {
		c.n.UpNodes++
		c.n.UpCores += n.cap
	} else {
		c.n.UpNodes--
		c.n.UpCores -= n.cap
	}
	c.refresh(i)
}

// Free returns node i's schedulable free cores (0 when not up).
func (c *Core) Free(i int) int { return c.free.t[c.free.size+i] }

// Used returns the cores granted on node i.
func (c *Core) Used(i int) int { return c.nodes[i].used }

// refresh re-derives node i's tree leaves, their sums and the atLeast
// census after a grant or availability change.
func (c *Core) refresh(i int) {
	n := &c.nodes[i]
	f, idle, was := 0, 0, c.Free(i)
	if n.up {
		f = n.cap - n.used
	}
	if f == n.cap {
		idle = 1
	}
	for p := was + 1; p <= f; p++ {
		c.atLeast[p]++
	}
	for p := f + 1; p <= was; p++ {
		c.atLeast[p]--
	}
	c.freeTotal += f - was
	c.idleN += idle - c.idle.t[c.idle.size+i]
	c.free.set(i, f)
	c.idle.set(i, idle)
}

// Census returns the maintained counters.
func (c *Core) Census() Census {
	n := c.n
	n.Running = len(c.run)
	return n
}

// Submit enters a job into the queue ledger at its key's position and
// returns its handle. Keys must be unique.
func (c *Core) Submit(key int64, hold time.Duration, d Demand) int {
	c.jobs = append(c.jobs, job{key: key, hold: hold, d: d})
	h := len(c.jobs) - 1
	c.enqueue(h)
	return h
}

// count adds sign times d to the waiting census.
func (c *Core) count(d Demand, sign int) {
	c.n.Waiting += sign
	c.n.WaitCores += sign * (d.Nodes*d.PPN + d.Cores)
	if d.PPN == 0 {
		c.n.WaitWhole += sign * d.Nodes
	}
}

// search returns the first queue position whose key is at least key.
func (c *Core) search(key int64) int {
	return sort.Search(len(c.queue), func(i int) bool { return c.jobs[c.queue[i]].key >= key })
}

// enqueue makes h waiting: it revives h's stale entry or inserts a new
// one at its key's position, pulling the head cursor back if needed.
func (c *Core) enqueue(h int) {
	j := &c.jobs[h]
	j.state = waiting
	c.count(j.d, 1)
	if j.inQueue {
		c.dead--
		c.head = min(c.head, c.search(j.key))
		return
	}
	j.inQueue = true
	at := len(c.queue)
	if at > 0 && c.jobs[c.queue[at-1]].key > j.key {
		at = c.search(j.key)
	}
	c.queue = slices.Insert(c.queue, at, int32(h))
	c.head = min(c.head, at)
}

// Hold keeps waiting job h in the queue but out of passes.
func (c *Core) Hold(h int) {
	c.count(c.jobs[h].d, -1)
	c.jobs[h].state = held
}

// Unhold makes held job h waiting again.
func (c *Core) Unhold(h int) {
	c.count(c.jobs[h].d, 1)
	c.jobs[h].state = waiting
}

// Dequeue removes a waiting or held job that will never run.
func (c *Core) Dequeue(h int) {
	j := &c.jobs[h]
	if j.state == waiting {
		c.count(j.d, -1)
	}
	j.state = gone
	c.dead++
}

// Grants returns running job h's grants, valid until it stops.
func (c *Core) Grants(h int) []Grant { return c.run[c.jobs[h].run].g }

// Stop releases running job h's grants; the job is done.
func (c *Core) Stop(h int) {
	c.unrun(h)
	c.jobs[h].state = gone
}

// Requeue releases running job h's grants and returns it to the queue
// at its key's position.
func (c *Core) Requeue(h int) {
	c.unrun(h)
	c.enqueue(h)
}

func (c *Core) unrun(h int) {
	k := int(c.jobs[h].run)
	for _, x := range c.run[k].g {
		c.nodes[x.Node].used -= x.N
		c.refresh(x.Node)
	}
	last := len(c.run) - 1
	c.run[k], c.run[last] = c.run[last], c.run[k]
	c.jobs[c.run[k].h].run = int32(k)
	c.run = c.run[:last]
}

// Running returns the running jobs' handles in submission order.
func (c *Core) Running() []int {
	out := make([]int, len(c.run))
	for k := range c.run {
		out[k] = int(c.run[k].h)
	}
	slices.Sort(out)
	return out
}

// Queued returns the waiting jobs' handles in queue order.
func (c *Core) Queued() []int {
	out := make([]int, 0, c.n.Waiting)
	for _, h := range c.queue {
		if c.jobs[h].state == waiting {
			out = append(out, int(h))
		}
	}
	return out
}

// First returns the first waiting job in queue order, or -1.
func (c *Core) First() int {
	c.advance()
	for _, h := range c.queue[c.head:] {
		if c.jobs[h].state == waiting {
			return int(h)
		}
	}
	return -1
}

// advance slides the head cursor past leading stale entries. Under a
// deep backlog the stale prefix grows by one per start while
// compaction waits for its majority, and rescanning it on every pass
// would make a pass O(backlog); the cursor keeps it proportional to
// live work. Held entries stay: they revive in place.
func (c *Core) advance() {
	for c.head < len(c.queue) && !c.jobs[c.queue[c.head]].queued() {
		c.head++
	}
}

// compact sweeps stale entries once they are the majority.
func (c *Core) compact() {
	if c.dead <= 64 || c.dead*2 <= len(c.queue) {
		return
	}
	kept := c.queue[:0]
	for _, h := range c.queue {
		if j := &c.jobs[h]; j.queued() {
			kept = append(kept, h)
		} else {
			j.inQueue = false
		}
	}
	c.queue, c.dead, c.head = kept, 0, 0
}

// Kick coalesces scheduling passes into one immediate event.
func (c *Core) Kick() {
	if c.pending {
		return
	}
	c.pending = true
	c.eng.After(0, c.passFn)
}

func (c *Core) runPass() {
	c.pending = false
	if c.Override != nil {
		c.Override(c.pass)
		return
	}
	c.pass()
}

// pass runs one scheduling pass over the queue. FCFS starts jobs in
// queue order and stops at the first that does not fit. With backfill
// the pass is EASY: the first blocked job becomes the pivot and is
// booked at its shadow time — the earliest instant it fits once
// running jobs release their grants at their projected ends — and
// later jobs start only if they cannot delay that booking. Jobs the
// front end finds ineligible are skipped without blocking the rest.
// The bound snapshots the queue, so jobs submitted by a start callback
// wait for the next pass.
func (c *Core) pass() {
	c.compact()
	c.advance()
	pivot := -1
	for k, bound := c.head, len(c.queue); k < bound; k++ {
		h := int(c.queue[k])
		if c.jobs[h].state != waiting {
			continue
		}
		if pivot >= 0 {
			// Most candidates behind a pivot do not fit, and choose's
			// census says so before the front end is asked.
			if g := c.choose(c.jobs[h].d); g != nil && c.allowed(h) {
				c.backfillStart(h, g, c.jobs[pivot].d)
			}
			continue
		}
		if !c.allowed(h) || c.TryStart(h) {
			continue
		}
		if !*c.backfill {
			return
		}
		pivot = h
		c.reserve(c.jobs[h].d)
	}
}

// allowed reports whether the front end lets waiting job h start in
// this pass.
func (c *Core) allowed(h int) bool { return c.eligible == nil || c.eligible(h) }

// TryStart starts waiting job h now if it fits.
func (c *Core) TryStart(h int) bool {
	g := c.choose(c.jobs[h].d)
	if g == nil {
		return false
	}
	c.start(h, g)
	return true
}

// choose picks grants for d on the nodes as they are now, first fit
// in node order, or returns nil when d does not fit. Every shape
// checks its census first, and first fit succeeds exactly when the
// census allows, so a tree walk always ends in grants. The slice is
// reused by the next call.
func (c *Core) choose(d Demand) []Grant {
	tree, want := &c.free, max(d.PPN, 1)
	switch {
	case d.Nodes == 0:
		if c.freeTotal < d.Cores {
			return nil
		}
	case c.fitting(d) < d.Nodes:
		return nil
	case d.PPN == 0:
		tree = &c.idle
	}
	g := c.gbuf[:0]
	for i, need := -1, d.Cores; len(g) < d.Nodes || need > 0; {
		if i = tree.nextFit(i+1, len(c.nodes), want); i < 0 {
			return nil
		}
		n := d.per(c.nodes[i].cap)
		if d.Nodes == 0 {
			n = min(c.Free(i), need)
			need -= n
		}
		g = append(g, Grant{i, n})
	}
	c.gbuf = g
	return g
}

// fitting counts the up nodes that have the free cores node-shaped
// demand d needs on each: idle nodes for whole-node demands, else the
// atLeast census.
func (c *Core) fitting(d Demand) int {
	switch {
	case d.PPN == 0:
		return c.idleN
	case d.PPN < len(c.atLeast):
		return c.atLeast[d.PPN]
	}
	return 0
}

// start grants g to waiting job h, moves it to the running ledger and
// hands it to the front end.
func (c *Core) start(h int, g []Grant) {
	for _, x := range g {
		c.nodes[x.Node].used += x.N
		c.refresh(x.Node)
	}
	j := &c.jobs[h]
	j.state, j.end = running, c.eng.Now()+j.hold
	c.count(j.d, -1)
	c.dead++ // its queue entry is now stale
	k := len(c.run)
	if k < cap(c.run) {
		c.run = c.run[:k+1]
	} else {
		c.run = append(c.run, runSlot{})
	}
	r := &c.run[k]
	r.h, r.g = int32(h), append(r.g[:0], g...)
	j.run = int32(k)
	if c.rel = append(c.rel, release{j.end, int32(h)}); len(c.rel) > 2*len(c.run)+64 {
		c.order()
	}
	c.onStart(h, r.g)
}

// reservation is the pivot's EASY booking: the shadow time and the
// per-node free cores projected at that instant (0 for nodes that are
// not up, where releases are not replayed). fit counts nodes whose
// projection meets the pivot's per-node need and total sums the
// projection, so testing the pivot against it is O(1); both start from
// the census. When ok is false no projected future fits the pivot (its
// nodes are down or in the other OS): there is nothing to protect, so
// backfill runs unrestricted, which lets the hybrid pack narrow work
// while the controller fetches nodes for the wide head.
type reservation struct {
	shadow     time.Duration
	free       []int
	fit, total int
	ok         bool
}

func (r *reservation) fits(d Demand) bool { return r.fit >= d.Nodes && r.total >= d.Cores }

// shift moves n cores on node i in the projection, keeping fit and
// total in step; need is the pivot's per-node need there.
func (r *reservation) shift(i, n, need int) {
	was := r.free[i]
	r.free[i] = was + n
	r.total += n
	if was < need && was+n >= need {
		r.fit++
	} else if was >= need && was+n < need {
		r.fit--
	}
}

// release is one running job in the reservation replay.
type release struct {
	end time.Duration
	h   int32
}

func (a release) compare(b release) int {
	return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.h, b.h))
}

// order sorts the releases appended since it last ran and merges
// them into the ordered prefix, dropping stale entries and the
// duplicate a job leaves when it restarts at the instant it was
// requeued.
func (c *Core) order() {
	a, b := c.rel[:c.sorted], c.rel[c.sorted:]
	slices.SortFunc(b, release.compare)
	out := c.relBuf[:0]
	for len(a) > 0 || len(b) > 0 {
		var r release
		if len(b) == 0 || len(a) > 0 && a[0].compare(b[0]) <= 0 {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if j := &c.jobs[r.h]; j.state == running && j.end == r.end && (len(out) == 0 || out[len(out)-1] != r) {
			out = append(out, r)
		}
	}
	c.rel, c.relBuf, c.sorted = out, c.rel[:0], len(out)
}

// reserve books pivot demand d by replaying the running jobs'
// projected releases onto the current free cores, in release order,
// until d fits. Projected ends are upper bounds (walltime or known
// runtime), so the pivot never starts later than its shadow time.
func (c *Core) reserve(d Demand) {
	r := &c.rsv
	r.free = append(r.free[:0], c.free.t[c.free.size:][:len(c.nodes)]...)
	r.fit, r.total, r.ok = c.fitting(d), c.freeTotal, false
	c.order()
	rel := c.rel
	for k := 0; k < len(rel); {
		end := rel[k].end
		for ; k < len(rel) && rel[k].end == end; k++ {
			for _, x := range c.run[c.jobs[rel[k].h].run].g {
				if c.nodes[x.Node].up {
					r.shift(x.Node, x.N, d.per(c.nodes[x.Node].cap))
				}
			}
		}
		if r.fits(d) {
			r.shadow, r.ok = end, true
			return
		}
	}
}

// backfillStart starts candidate h on grants g behind a blocked pivot
// if that cannot delay the pivot's booking: either h releases its
// grants by the shadow time, or the pivot still fits at the shadow
// time with g subtracted. Long candidates that pass stay subtracted,
// so later candidates in the pass see the remaining slack only.
func (c *Core) backfillStart(h int, g []Grant, pivot Demand) {
	r := &c.rsv
	if r.ok && c.eng.Now()+c.jobs[h].hold > r.shadow {
		for _, x := range g {
			r.shift(x.Node, -x.N, pivot.per(c.nodes[x.Node].cap))
		}
		if !r.fits(pivot) {
			for _, x := range g {
				r.shift(x.Node, x.N, pivot.per(c.nodes[x.Node].cap))
			}
			return
		}
	}
	c.start(h, g)
}

// maxTree is a max segment tree over node indices: nextFit jumps to
// the next node whose leaf reaches a threshold instead of walking the
// node table.
type maxTree struct {
	t    []int
	size int // leaf slots, a power of two
}

// grow makes room for n leaves, keeping their values.
func (m *maxTree) grow(n int) {
	if n <= m.size {
		return
	}
	size := max(m.size, 1)
	for size < n {
		size <<= 1
	}
	t := make([]int, 2*size)
	copy(t[size:], m.t[m.size:])
	for i := size - 1; i >= 1; i-- {
		t[i] = max(t[2*i], t[2*i+1])
	}
	m.t, m.size = t, size
}

// set stores v at leaf i and repairs ancestors until one is
// unchanged.
func (m *maxTree) set(i, v int) {
	i += m.size
	if m.t[i] == v {
		return
	}
	m.t[i] = v
	for i >>= 1; i >= 1; i >>= 1 {
		v := max(m.t[2*i], m.t[2*i+1])
		if m.t[i] == v {
			return
		}
		m.t[i] = v
	}
}

// nextFit returns the first leaf index in [from, limit) whose value
// reaches want, or -1. O(log nodes).
func (m *maxTree) nextFit(from, limit, want int) int {
	if from >= limit {
		return -1
	}
	i := m.size + from
	for {
		if m.t[i] >= want {
			for i < m.size {
				if i *= 2; m.t[i] < want {
					i++
				}
			}
			if idx := i - m.size; idx < limit {
				return idx
			}
			return -1
		}
		for ; i%2 == 1; i >>= 1 {
			if i == 1 {
				return -1
			}
		}
		i++
	}
}

// Rebuild recomputes from scratch everything the core maintains
// incrementally — the queue ledger and its cursor, the census, the
// per-node grant counts, both trees, their sums and the atLeast census,
// and the release order — from the jobs' states, the running jobs'
// grants and projected ends, and the nodes' availability,
// installs the result, and reports the first structure whose
// incremental form differed. The twin-equivalence tests call it
// before every pass.
func (c *Core) Rebuild() error {
	s := Core{jobs: c.jobs, nodes: make([]node, len(c.nodes)), atLeast: make([]int, len(c.atLeast))}
	for i, n := range c.nodes {
		s.nodes[i].cap = n.cap
	}
	var live []int32
	for _, h := range c.queue {
		if c.jobs[h].queued() {
			live = append(live, h)
		}
	}
	for h := range c.jobs {
		j := &c.jobs[h]
		if j.inQueue = j.queued(); j.inQueue {
			s.queue = append(s.queue, int32(h))
			if j.state == waiting {
				s.count(j.d, 1)
			}
		}
	}
	slices.SortFunc(s.queue, func(a, b int32) int { return cmp.Compare(c.jobs[a].key, c.jobs[b].key) })
	nrun := 0
	for h := range c.jobs {
		if c.jobs[h].state == running {
			nrun++
		}
	}
	for k, r := range c.run {
		if c.jobs[r.h].state != running || int(c.jobs[r.h].run) != k {
			return errors.New("sched: running ledger drifted")
		}
		s.rel = append(s.rel, release{c.jobs[r.h].end, r.h})
		for _, x := range r.g {
			s.nodes[x.Node].used += x.N
		}
	}
	s.free.grow(len(c.nodes))
	s.idle.grow(len(c.nodes))
	for i, n := range c.nodes {
		s.SetUp(i, n.up)
	}
	slices.SortFunc(s.rel, release.compare)
	c.order()
	switch {
	case !slices.Equal(live, s.queue) || c.dead != len(c.queue)-len(live):
		return errors.New("sched: queue ledger drifted")
	case nrun != len(c.run):
		return errors.New("sched: running ledger drifted")
	case c.n != s.n:
		return errors.New("sched: census drifted")
	case !slices.Equal(c.nodes, s.nodes):
		return errors.New("sched: per-node grants drifted")
	case !slices.Equal(c.free.t, s.free.t) || !slices.Equal(c.idle.t, s.idle.t) ||
		c.freeTotal != s.freeTotal || c.idleN != s.idleN || !slices.Equal(c.atLeast, s.atLeast):
		return errors.New("sched: node trees drifted")
	case !slices.Equal(c.rel, s.rel):
		return errors.New("sched: release order drifted")
	}
	c.queue, c.dead, c.head = s.queue, 0, 0
	c.free, c.idle = s.free, s.idle
	return nil
}
