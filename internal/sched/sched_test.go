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

func TestSortReleasesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 12, 13, 50, 1000} {
		for _, spread := range []int64{1, 5, 1 << 40} { // many ties, some, none
			a := make([]release, n)
			for i := range a {
				a[i] = release{end: time.Duration(rng.Int63n(spread)), h: int32(rng.Intn(1 << 20)), slot: int32(i)}
			}
			want := slices.Clone(a)
			sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
			sortReleases(a)
			for i := range a {
				if a[i].end != want[i].end || a[i].h != want[i].h {
					t.Fatalf("n=%d spread=%d: position %d = %+v, want %+v", n, spread, i, a[i], want[i])
				}
			}
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
