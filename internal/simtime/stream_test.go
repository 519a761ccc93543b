package simtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// streamScenario drives an engine through a seeded interleaving of At,
// AtBackground, Stop, RunUntil and Stream calls — streams started up
// front and from inside callbacks, with same-instant ties against each
// other and against plain events — and logs every firing plus the
// engine's counters after each scheduling burst and each RunUntil;
// each firing also logs the next due time it sees.
// expand replaces every Stream with its n At calls.
func streamScenario(seed int64, expand bool) []string {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var log []string
	var timers []*Timer // stoppable events; streams hand out none
	ids := 0
	gap := func() time.Duration {
		switch rng.Intn(4) {
		case 0:
			return 0 // a same-instant tie
		case 1:
			return time.Duration(rng.Int63n(int64(time.Minute)))
		case 2:
			return time.Duration(rng.Int63n(int64(2 * time.Hour)))
		default:
			return time.Duration(rng.Int63n(int64(200 * time.Hour))) // beyond the calendar window
		}
	}
	var schedule func(depth int)
	fired := func(name string, depth int) func() {
		return func() {
			next, ok := e.NextEventAt()
			log = append(log, fmt.Sprintf("%s@%v next=%v,%v", name, e.Now(), next, ok))
			if depth < 3 && rng.Intn(3) == 0 {
				schedule(depth + 1)
			}
		}
	}
	schedule = func(depth int) {
		ids++
		name := fmt.Sprintf("e%d", ids)
		switch rng.Intn(6) {
		case 0, 1:
			at := make([]time.Duration, 1+rng.Intn(30))
			t := e.Now() + gap()
			for k := range at {
				if rng.Intn(3) == 0 {
					t += gap()
				}
				at[k] = t
			}
			fire := func(k int) { fired(fmt.Sprintf("%s.%d", name, k), depth)() }
			if !expand {
				e.Stream(len(at), func(k int) time.Duration { return at[k] }, fire)
				return
			}
			for k, t := range at {
				e.At(t, func() { fire(k) })
			}
		case 2:
			timers = append(timers, e.AtBackground(e.Now()+gap(), fired(name, depth)))
		case 3:
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Stop()
			}
		default:
			timers = append(timers, e.At(e.Now()+gap(), fired(name, depth)))
		}
	}
	counters := func(what string) {
		log = append(log, fmt.Sprintf("%s: now=%v ran=%d pending=%d foreground=%d",
			what, e.Now(), e.EventsRun(), e.Pending(), e.ForegroundPending()))
	}
	for round := 0; round < 60; round++ {
		for i := rng.Intn(5); i >= 0; i-- {
			schedule(0)
		}
		counters(fmt.Sprintf("scheduled %d", round))
		e.RunUntil(e.Now() + time.Duration(rng.Int63n(int64(3*time.Hour))))
		counters(fmt.Sprintf("ran %d", round))
	}
	e.Run()
	counters("drained")
	return log
}

// TestStreamMatchesExpandedAt pins Stream's contract: a run with
// streams fires the same callbacks in the same order, and reports the
// same EventsRun, Pending and ForegroundPending at every step, as the
// run with each stream expanded into n At calls.
func TestStreamMatchesExpandedAt(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 99} {
		got, want := streamScenario(seed, false), streamScenario(seed, true)
		if i := slices.Compare(got, want); i != 0 {
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("seed %d: line %d: stream %q, expanded %q", seed, k, got[k], want[k])
				}
			}
			t.Fatalf("seed %d: stream logged %d lines, expanded %d", seed, len(got), len(want))
		}
		if len(got) < 500 {
			t.Fatalf("seed %d: only %d log lines; the scenario exercises too little", seed, len(got))
		}
	}
}

// A stream whose next call is due before the clock panics, as At does.
func TestStreamInPastPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("stream starting in the past did not panic")
		}
	}()
	e.Stream(1, func(int) time.Duration { return 0 }, func(int) {})
}
