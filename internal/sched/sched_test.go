package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/simtime"
)

// newCore returns a core over nodes of the given sizes, all up, whose
// start callback records handles in started.
func newCore(backfill bool, sizes ...int) (*simtime.Engine, *Core, *[]int) {
	eng := simtime.NewEngine()
	started := &[]int{}
	c := New(eng, &backfill, nil, func(h int, _ []Grant) { *started = append(*started, h) })
	for _, n := range sizes {
		c.AddNode(n, true)
	}
	return eng, c, started
}

// TestChooseMatchesCensus: on random node tables and grants, a
// nodes×PPN demand gets grants exactly when a brute-force count of up
// nodes with PPN free cores reaches Nodes, and the grants land there.
func TestChooseMatchesCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for table := 0; table < 200; table++ {
		_, c, _ := newCore(false)
		for n := 1 + rng.Intn(12); n > 0; n-- {
			c.AddNode([]int{2, 4, 8}[rng.Intn(3)], true)
		}
		for k := 0; k < 20; k++ {
			if h := c.Submit(int64(k), time.Hour, Demand{Nodes: 1, PPN: 1 + rng.Intn(4)}); !c.TryStart(h) {
				c.Dequeue(h)
			}
		}
		for i := range c.nodes {
			c.SetUp(i, rng.Intn(4) > 0) // drained nodes keep their grants
		}
		if err := c.Rebuild(); err != nil {
			t.Fatalf("table %d: %v", table, err)
		}
		for k := 0; k < 30; k++ {
			d := Demand{Nodes: 1 + rng.Intn(6), PPN: 1 + rng.Intn(9)}
			fit := 0
			for _, n := range c.nodes {
				if n.up && n.cap-n.used >= d.PPN {
					fit++
				}
			}
			g := c.choose(d)
			if (g != nil) != (fit >= d.Nodes) {
				t.Fatalf("table %d: choose(%+v) = %v with %d nodes fitting", table, d, g, fit)
			}
			for _, x := range g {
				if n := c.nodes[x.Node]; !n.up || n.cap-n.used < d.PPN || x.N != d.PPN {
					t.Fatalf("table %d: choose(%+v) granted %+v on %+v", table, d, x, n)
				}
			}
		}
	}
}

// scratchShadow books d the slow way: sort the running ledger by
// projected end, replay its grants onto a copy of the free cores and
// count nodes until d fits.
func scratchShadow(c *Core, d Demand) (time.Duration, bool) {
	rel := make([]release, 0, len(c.run))
	for _, r := range c.run {
		rel = append(rel, release{c.jobs[r.h].end, r.h})
	}
	sort.Slice(rel, func(a, b int) bool {
		return rel[a].end < rel[b].end || rel[a].end == rel[b].end && rel[a].h < rel[b].h
	})
	free := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		free[i] = n.cap - n.used
	}
	for k, r := range rel {
		for _, x := range c.Grants(int(r.h)) {
			free[x.Node] += x.N
		}
		if k+1 < len(rel) && rel[k+1].end == r.end {
			continue
		}
		fit, total := 0, 0
		for i, n := range c.nodes {
			if n.up {
				total += free[i]
				if free[i] >= d.per(n.cap) {
					fit++
				}
			}
		}
		if fit >= d.Nodes && total >= d.Cores {
			return r.end, true
		}
	}
	return 0, false
}

// TestReleaseOrderUnderChurn drives starts, stops, requeues, restarts
// at the same instant and node drains through a core. Every few steps
// it checks the booked shadow time against a from-scratch replay and,
// through Rebuild, the release order against a fresh sort of the
// running ledger.
func TestReleaseOrderUnderChurn(t *testing.T) {
	eng, c, _ := newCore(true, 2, 4, 8, 4, 8, 2, 4, 8)
	rng := rand.New(rand.NewSource(17))
	check := func(step int) {
		t.Helper()
		for _, d := range []Demand{{Nodes: 3, PPN: 4}, {Nodes: 2}, {Cores: 20}, {Nodes: 1, PPN: 8}} {
			c.reserve(d)
			shadow, ok := scratchShadow(c, d)
			if c.rsv.ok != ok || ok && c.rsv.shadow != shadow {
				t.Fatalf("step %d: reserve(%+v) booked (%v, %v), scratch (%v, %v)", step, d, c.rsv.shadow, c.rsv.ok, shadow, ok)
			}
		}
		if err := c.Rebuild(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// A job requeued and restarted at the instant it started has the
	// same release twice: one ordered, one appended.
	h := c.Submit(0, time.Hour, Demand{Nodes: 1, PPN: 2})
	c.TryStart(h)
	check(0)
	c.Requeue(h)
	c.TryStart(h)
	check(0)
	for step := 1; step <= 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			d := Demand{Nodes: 1 + rng.Intn(2), PPN: 1 + rng.Intn(4)}
			if rng.Intn(3) == 0 {
				d = Demand{Cores: 1 + rng.Intn(6)}
			}
			h := c.Submit(int64(step), time.Duration(1+rng.Intn(3))*time.Hour, d)
			if !c.TryStart(h) {
				c.Dequeue(h)
			} else if len(c.rel) > 2*len(c.run)+64 {
				t.Fatalf("step %d: %d releases kept for %d running jobs", step, len(c.rel), len(c.run))
			}
		case len(c.run) == 0:
		case op < 7:
			c.Stop(int(c.run[rng.Intn(len(c.run))].h))
		default:
			h := int(c.run[rng.Intn(len(c.run))].h)
			c.Requeue(h)
			if op < 9 && !c.TryStart(h) {
				c.Dequeue(h)
			}
		}
		if rng.Intn(20) == 0 { // drained nodes keep their grants
			c.SetUp(rng.Intn(len(c.nodes)), rng.Intn(3) > 0)
		}
		if rng.Intn(4) == 0 {
			eng.RunUntil(eng.Now() + time.Duration(rng.Intn(3))*30*time.Minute)
		}
		if step%500 < 250 && rng.Intn(3) == 0 { // long stretches without a replay let start compact
			check(step)
		}
	}
}

func TestNextFitMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m maxTree
	var leaves []int
	for n := 1; n <= 40; n++ {
		m.grow(n)
		leaves = append(leaves, 0)
		for k := 0; k < 20; k++ {
			i, v := rng.Intn(n), rng.Intn(9)
			m.set(i, v)
			leaves[i] = v
		}
		for from := 0; from <= n; from++ {
			for want := 0; want <= 9; want++ {
				scan := -1
				for i := from; i < n; i++ {
					if leaves[i] >= want {
						scan = i
						break
					}
				}
				if got := m.nextFit(from, n, want); got != scan {
					t.Fatalf("n=%d nextFit(%d, %d) = %d, scan finds %d", n, from, want, got, scan)
				}
			}
		}
	}
}

// TestDemandShapes places each demand shape on a mixed node table.
func TestDemandShapes(t *testing.T) {
	_, c, _ := newCore(false, 2, 4, 8, 4)
	c.nodes[1].used = 1 // node 1 has 3 free
	c.refresh(1)
	for _, tc := range []struct {
		d    Demand
		want []Grant
	}{
		{Demand{Nodes: 2, PPN: 3}, []Grant{{1, 3}, {2, 3}}},
		{Demand{Nodes: 1, PPN: 8}, []Grant{{2, 8}}},
		{Demand{Nodes: 3, PPN: 4}, nil},
		{Demand{Nodes: 2}, []Grant{{0, 2}, {2, 8}}},         // whole nodes skip the busy one
		{Demand{Nodes: 4}, nil},                             // only three are idle
		{Demand{Cores: 6}, []Grant{{0, 2}, {1, 3}, {2, 1}}}, // cores anywhere, first fit
		{Demand{Cores: 18}, nil},
	} {
		if got := c.choose(tc.d); !slices.Equal(got, tc.want) {
			t.Errorf("choose(%+v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

// TestQueueLedger drives the ledger through out-of-order keys, holds,
// starts, requeue revival and compaction, checking it against a
// rebuild after each step.
func TestQueueLedger(t *testing.T) {
	eng, c, started := newCore(false, 4)
	check := func(step string, want ...int) {
		t.Helper()
		if got := c.Queued(); !slices.Equal(got, want) {
			t.Fatalf("%s: queued %v, want %v", step, got, want)
		}
		if err := c.Rebuild(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	a := c.Submit(30, time.Hour, Demand{Nodes: 1, PPN: 4})
	b := c.Submit(10, time.Hour, Demand{Nodes: 1, PPN: 4})
	d := c.Submit(20, time.Hour, Demand{Cores: 1})
	check("submit", b, d, a)
	c.Hold(b)
	if c.First() != d {
		t.Fatalf("first = %d, want %d (b is held)", c.First(), d)
	}
	c.Kick()
	eng.RunUntil(0)
	if !slices.Equal(*started, []int{d}) {
		t.Fatalf("started %v, want [%d]: %d blocks behind d", *started, d, a)
	}
	check("pass", a)
	c.Unhold(b)
	c.Requeue(d)
	check("requeue", b, d, a)
	c.Dequeue(a)
	check("dequeue", b, d)
	if n := c.Census(); n.Waiting != 2 || n.WaitCores != 5 || n.Running != 0 {
		t.Fatalf("census %+v", n)
	}
	for i := 0; i < 200; i++ {
		c.Dequeue(c.Submit(int64(100+i), 0, Demand{Cores: 1}))
	}
	c.compact()
	if len(c.queue) != 2 || c.dead != 0 {
		t.Fatalf("compaction kept %d entries, %d dead", len(c.queue), c.dead)
	}
	check("compact", b, d)
}

// TestReservationPassAllocatesNothing pins the pass hot path: an EASY
// pass that books a pivot and tests candidates against it allocates
// nothing once its scratch buffers have grown.
func TestReservationPassAllocatesNothing(t *testing.T) {
	eng, c, _ := newCore(true, 4, 4, 4, 4)
	for i := 0; i < 4; i++ {
		c.Submit(int64(i), time.Duration(i+1)*time.Hour, Demand{Nodes: 1, PPN: 3})
	}
	c.Kick()
	eng.RunUntil(0)
	c.Submit(10, time.Hour, Demand{Nodes: 4, PPN: 4})   // pivot
	c.Submit(11, 9*time.Hour, Demand{Nodes: 1, PPN: 1}) // would delay it
	c.pass()
	if !c.rsv.ok || c.rsv.shadow != 4*time.Hour {
		t.Fatalf("reservation %+v, want shadow 4h", c.rsv)
	}
	if n := testing.AllocsPerRun(20, c.pass); n != 0 {
		t.Fatalf("pass allocates %v times", n)
	}
}

// TestReservationSkipsDrainedNodes: a node taken out of scheduling
// keeps its running jobs, but their releases there must not count
// toward the pivot's booking.
func TestReservationSkipsDrainedNodes(t *testing.T) {
	eng, c, _ := newCore(true, 4, 4)
	c.Submit(0, time.Hour, Demand{Nodes: 1, PPN: 4})
	c.Submit(1, 2*time.Hour, Demand{Nodes: 1, PPN: 4})
	c.Kick()
	eng.RunUntil(0)
	c.SetUp(0, false) // drained: the 1h job keeps running there
	c.reserve(Demand{Cores: 4})
	if !c.rsv.ok || c.rsv.shadow != 2*time.Hour {
		t.Fatalf("reservation %+v, want shadow 2h on the node still up", c.rsv)
	}
}

// referencePass is the EASY pass without the per-shape rejection memo
// or the dead-census exit: every waiting candidate behind the pivot is
// tested in full.
func referencePass(c *Core) {
	c.compact()
	c.advance()
	pivot := -1
	for k, bound := c.head, len(c.queue); k < bound; k++ {
		h := int(c.queue[k])
		if c.jobs[h].state != waiting {
			continue
		}
		if pivot >= 0 {
			long := c.rsv.ok && c.eng.Now()+c.jobs[h].hold > c.rsv.shadow
			if g := c.choose(c.jobs[h].d); g != nil && c.allowed(h) {
				c.backfillStart(h, g, c.jobs[pivot].d, long)
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

// scanOpen derives open from the jobs: whether some waiting job's
// demand passes its census.
func scanOpen(c *Core) bool {
	for h := range c.jobs {
		if c.jobs[h].state == waiting && c.census(c.jobs[h].d) {
			return true
		}
	}
	return false
}

// twin is one core of the reference-equivalence test and the log of
// what its passes started.
type twin struct {
	eng    *simtime.Engine
	c      *Core
	passes int
	log    []Grant // per start: {-1, handle}, then its grants
}

// newTwin builds a core whose front end vetoes a deterministic mix of
// candidates per pass and, on some starts, requeues the oldest other
// running job from inside the start callback. Both rules depend only
// on the core's state, so two cores that agree so far keep agreeing.
func newTwin(reference bool, sizes []int) *twin {
	tw := &twin{eng: simtime.NewEngine()}
	backfill := true
	eligible := func(h int) bool { return (h*31+tw.passes)%7 != 0 }
	tw.c = New(tw.eng, &backfill, eligible, func(h int, g []Grant) {
		tw.log = append(append(tw.log, Grant{-1, h}), g...)
		if h%9 == 4 {
			if run := tw.c.Running(); len(run) > 1 && run[0] != h {
				tw.c.Requeue(run[0])
			}
		}
	})
	tw.c.Override = func(pass func()) {
		tw.passes++
		tw.log = append(tw.log, Grant{-2, tw.passes})
		if reference {
			referencePass(tw.c)
			return
		}
		pass()
	}
	for _, n := range sizes {
		tw.c.AddNode(n, true)
	}
	return tw
}

// TestPassMatchesReference feeds the same random operations to a core
// and to one running the exhaustive reference pass — mixed shapes and
// holds, drains, holds, requeues from start callbacks and eligibility
// vetoes — and requires the same starts and grants after every pass.
// After every operation the dead-census cache must agree with a scan
// of the waiting jobs.
func TestPassMatchesReference(t *testing.T) {
	sizes := []int{2, 4, 8, 4, 8, 4, 2, 8, 4, 4}
	shapes := []Demand{{Nodes: 1, PPN: 1}, {Nodes: 1, PPN: 2}, {Nodes: 1, PPN: 4}, {Nodes: 2, PPN: 4},
		{Nodes: 4, PPN: 4}, {Nodes: 3, PPN: 8}, {Nodes: 2}, {Cores: 3}, {Cores: 12}}
	holds := []time.Duration{10 * time.Minute, time.Hour, 3 * time.Hour, 9 * time.Hour}
	rng := rand.New(rand.NewSource(23))
	fast, ref := newTwin(false, sizes), newTwin(true, sizes)
	both := func(f func(*Core)) {
		f(fast.c)
		f(ref.c)
	}
	var held []int
	for step := 1; step <= 4000; step++ {
		switch op := rng.Intn(20); {
		case op < 9:
			key := int64(step)
			if rng.Intn(5) == 0 {
				key = -key // jumps ahead of the queue
			}
			d, hold := shapes[rng.Intn(len(shapes))], holds[rng.Intn(len(holds))]
			both(func(c *Core) { c.Submit(key, hold, d) })
		case op < 14:
			if run := ref.c.Running(); len(run) > 0 {
				h := run[rng.Intn(len(run))]
				if op < 13 {
					both(func(c *Core) { c.Stop(h) })
				} else {
					both(func(c *Core) { c.Requeue(h) })
				}
			}
		case op < 16:
			if q := ref.c.Queued(); len(q) > 0 && (len(held) == 0 || rng.Intn(2) == 0) {
				h := q[rng.Intn(len(q))]
				both(func(c *Core) { c.Hold(h) })
				held = append(held, h)
			} else if len(held) > 0 {
				h := held[0]
				both(func(c *Core) { c.Unhold(h) })
				held = held[1:]
			}
		case op < 17:
			i, up := rng.Intn(len(sizes)), rng.Intn(3) > 0
			both(func(c *Core) { c.SetUp(i, up) })
		}
		if got, want := fast.c.open(), scanOpen(fast.c); got != want {
			t.Fatalf("step %d: open() = %v, a scan of the waiting jobs says %v", step, got, want)
		}
		both(func(c *Core) { c.Kick() })
		dt := time.Duration(rng.Intn(3)) * 20 * time.Minute
		fast.eng.RunUntil(fast.eng.Now() + dt)
		ref.eng.RunUntil(ref.eng.Now() + dt)
		if !slices.Equal(fast.log, ref.log) {
			t.Fatalf("step %d: starts diverged from the reference pass\n got %v\nwant %v", step, fast.log, ref.log)
		}
		if fast.c.Census() != ref.c.Census() {
			t.Fatalf("step %d: census %+v, reference %+v", step, fast.c.Census(), ref.c.Census())
		}
		if step%100 == 0 {
			for _, tw := range []*twin{fast, ref} {
				if err := tw.c.Rebuild(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
	}
	if fast.passes < 1000 || len(fast.log) < 1000 {
		t.Fatalf("only %d passes and %d log entries: the operations exercise little", fast.passes, len(fast.log))
	}
}

// TestMemoAsksEligibleOncePerPass: behind a pivot, N candidates of one
// shape that fit now but would hold their cores past the shadow time
// and delay the pivot cost one eligibility check per pass, not N.
func TestMemoAsksEligibleOncePerPass(t *testing.T) {
	const n = 10
	for _, reference := range []bool{false, true} {
		eng := simtime.NewEngine()
		backfill, calls := true, 0
		c := New(eng, &backfill, func(h int) bool {
			if h >= 2 {
				calls++
			}
			return true
		}, func(int, []Grant) {})
		c.AddNode(4, true)
		c.AddNode(4, true)
		c.TryStart(c.Submit(0, time.Hour, Demand{Nodes: 1, PPN: 4})) // node 0 busy for 1h
		c.Submit(1, time.Hour, Demand{Nodes: 2, PPN: 4})             // pivot, shadow 1h
		for i := 0; i < n; i++ {
			c.Submit(int64(2+i), 9*time.Hour, Demand{Nodes: 1, PPN: 1}) // fits on node 1, delays the pivot
		}
		if reference {
			referencePass(c)
		} else {
			c.pass()
		}
		want := 1
		if reference {
			want = n
		}
		if calls != want || len(c.run) != 1 {
			t.Fatalf("reference=%v: %d eligibility checks and %d running, want %d and 1", reference, calls, len(c.run), want)
		}
	}
}

// TestRebuildChecksShapeCensus: Rebuild re-derives the waiting count
// per shape, reports a drift in it, and moves the generation so no
// memo survives it.
func TestRebuildChecksShapeCensus(t *testing.T) {
	_, c, _ := newCore(true, 4)
	c.Submit(0, time.Hour, Demand{Nodes: 1, PPN: 2})
	c.Submit(1, time.Hour, Demand{Cores: 3})
	gen := c.gen
	if err := c.Rebuild(); err != nil || c.gen == gen {
		t.Fatalf("Rebuild() = %v, generation %d → %d", err, gen, c.gen)
	}
	c.waitN[1]++
	if err := c.Rebuild(); err == nil || err.Error() != "sched: census drifted" {
		t.Fatalf("Rebuild() = %v after a per-shape count drifted", err)
	}
}
