// Package simtime provides a deterministic discrete-event simulation
// engine. All cluster components in this repository are driven by a
// shared virtual clock so that experiments are reproducible and run in
// milliseconds of wall time regardless of how many simulated hours they
// cover.
//
// Virtual time is a time.Duration measured from the start of the
// simulation (epoch zero). Events scheduled for the same instant fire
// in the order they were scheduled, which makes every run with the same
// inputs bit-for-bit identical.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. The callback runs with the engine's
// clock set to exactly the event's due time. Background events (ticker
// maintenance such as controller polling or series sampling) fire like
// any other event but do not count as outstanding work: quiescence
// detection ignores them.
type event struct {
	due        time.Duration
	seq        uint64
	fn         func()
	dead       bool
	background bool
	eng        *Engine
	timer      Timer // At's handle, allocated with the event
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev *event
}

// Stop cancels the timer. It reports whether the timer was still
// pending; a false return means the callback already ran (or the timer
// was stopped earlier). The cancelled event leaves Pending() and (for
// foreground timers) ForegroundPending immediately — quiescence
// detection never waits on a corpse — while the queue slot itself is
// reaped lazily at fire time.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	if eng := t.ev.eng; eng != nil {
		eng.live--
		if !t.ev.background {
			eng.foreground--
		}
	}
	return true
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all simulated components run inside engine
// callbacks, mirroring the single-box deployment of the paper's
// daemons. The queue is an indexed calendar/bucket queue (see
// calendar.go) with the exact (due, seq) pop order of a flat min-heap.
type Engine struct {
	now        time.Duration
	seq        uint64
	queue      *calendar
	stopped    bool
	ran        uint64
	live       int // live events still queued (cancelled ones excluded)
	foreground int // live non-background events still queued
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{queue: newCalendar()}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// EventsRun returns the number of callbacks executed so far, which is
// useful for progress assertions in tests.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of live events still queued. Cancelled
// timers leave the count at Stop time, not at their original fire
// time, even though their queue slots are reaped lazily.
func (e *Engine) Pending() int { return e.live }

// At schedules fn at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it indicates a logic error in the caller, and
// silently reordering time would destroy determinism.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	return e.at(t, fn, false)
}

// AtBackground schedules fn at absolute time t as a background event:
// it fires like any other event but does not count as outstanding
// work, so it never keeps a quiescence-aware run alive on its own.
func (e *Engine) AtBackground(t time.Duration, fn func()) *Timer {
	return e.at(t, fn, true)
}

func (e *Engine) at(t time.Duration, fn func(), background bool) *Timer {
	if fn == nil {
		panic("simtime: nil callback")
	}
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, e.now))
	}
	ev := &event{due: t, seq: e.seq, fn: fn, background: background, eng: e}
	ev.timer.ev = ev
	e.seq++
	e.live++
	if !background {
		e.foreground++
	}
	e.queue.push(ev)
	return &ev.timer
}

// Stream schedules n foreground calls fire(0), …, fire(n-1), call k at
// virtual time at(k); at must be non-decreasing in k. The calls pop in
// exactly the (due, seq) order of n At calls made here — the n
// sequence numbers are reserved now and all n calls count as pending
// at once — but the calendar holds a single event, re-armed for call
// k+1 when call k fires, so a long trace costs one event rather than
// one closure and one queue entry per call.
func (e *Engine) Stream(n int, at func(k int) time.Duration, fire func(k int)) {
	if n <= 0 {
		return
	}
	base := e.seq
	e.seq += uint64(n)
	e.live += n
	e.foreground += n
	ev := new(event)
	k := 0
	var next func()
	arm := func() {
		t := at(k)
		if t < e.now {
			panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, e.now))
		}
		ev.due, ev.seq, ev.fn, ev.dead = t, base+uint64(k), next, false
		e.queue.push(ev)
	}
	next = func() {
		i := k
		if k++; k < n {
			arm()
		}
		fire(i)
	}
	arm()
}

// After schedules fn d after the current virtual time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterBackground schedules a background event d from now.
func (e *Engine) AfterBackground(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.AtBackground(e.now+d, fn)
}

// Every schedules fn every interval, first firing one interval from
// now, until the returned Ticker is stopped or the engine runs out of
// other events; a ticker alone does not keep the engine alive past
// RunUntil deadlines.
type Ticker struct {
	stopped bool
	timer   *Timer
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Every arranges for fn to run every interval of virtual time. The
// interval must be positive.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	return e.every(interval, fn, false)
}

// EveryBackground is Every with the ticks classified as background
// events: a periodic maintenance task (controller polling, series
// sampling) that must never keep a quiescence-aware run alive by
// itself. RunUntilQuiescent and ForegroundPending ignore such ticks.
func (e *Engine) EveryBackground(interval time.Duration, fn func()) *Ticker {
	return e.every(interval, fn, true)
}

func (e *Engine) every(interval time.Duration, fn func(), background bool) *Ticker {
	if interval <= 0 {
		panic("simtime: non-positive ticker interval")
	}
	tk := &Ticker{}
	var schedule func()
	schedule = func() {
		tick := func() {
			if tk.stopped {
				return
			}
			fn()
			if !tk.stopped {
				schedule()
			}
		}
		if background {
			tk.timer = e.AfterBackground(interval, tick)
		} else {
			tk.timer = e.After(interval, tick)
		}
	}
	schedule()
	return tk
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next pending live event, returning false when the
// queue is exhausted.
func (e *Engine) step() bool {
	for {
		ev := e.queue.pop()
		if ev == nil {
			return false
		}
		if ev.dead {
			continue
		}
		if ev.due < e.now {
			panic("simtime: event queue went backwards")
		}
		e.now = ev.due
		fn := ev.fn
		ev.dead = true
		ev.fn = nil
		e.live--
		if !ev.background {
			e.foreground--
		}
		e.ran++
		fn()
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with due time <= deadline, then sets the
// clock to the deadline. Events after the deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.stopped = false
	for !e.stopped {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the clock by d, executing everything due in between.
func (e *Engine) RunFor(d time.Duration) {
	if d < 0 {
		panic("simtime: negative RunFor duration")
	}
	e.RunUntil(e.now + d)
}

// ForegroundPending returns the number of live non-background events
// still queued — the engine's own notion of outstanding work.
func (e *Engine) ForegroundPending() int { return e.foreground }

// RunWhile hops event-to-event while active() reports outstanding
// work, checking the predicate after every callback so the run stops
// at the exact instant of quiescence instead of overshooting to a
// polling boundary. When work persists but no event at or before the
// deadline can advance it (a wedged component, or an empty queue), the
// clock rides to the deadline and the run returns — the caller's
// horizon, not an iteration count, bounds a stuck simulation.
func (e *Engine) RunWhile(deadline time.Duration, active func() bool) {
	e.stopped = false
	for !e.stopped && active() {
		next, ok := e.peek()
		if !ok || next > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return
		}
		e.step()
	}
}

// RunUntilQuiescent executes events until no live foreground events
// remain at or before the deadline: background tickers alone never
// keep the run alive. Unlike RunWhile it needs no predicate — the
// event queue itself is the work ledger. The clock is left at the last
// executed event (it does not jump to the deadline).
func (e *Engine) RunUntilQuiescent(deadline time.Duration) {
	e.stopped = false
	for !e.stopped && e.foreground > 0 {
		next, ok := e.peek()
		if !ok || next > deadline {
			return
		}
		e.step()
	}
}

// peek returns the due time of the next live event, reaping cancelled
// ones it walks over.
func (e *Engine) peek() (time.Duration, bool) {
	for {
		ev := e.queue.peek()
		if ev == nil {
			return 0, false
		}
		if ev.dead {
			e.queue.pop()
			continue
		}
		return ev.due, true
	}
}

// NextEventAt reports when the next live event is due. ok is false when
// the queue is empty.
func (e *Engine) NextEventAt() (t time.Duration, ok bool) { return e.peek() }

// MaxDuration is a convenient "end of time" for RunUntil.
const MaxDuration = time.Duration(math.MaxInt64)

// Stamp formats a virtual time as D+HH:MM:SS for logs and tables.
func Stamp(t time.Duration) string {
	if t < 0 {
		return "-" + Stamp(-t)
	}
	d := t / (24 * time.Hour)
	t -= d * 24 * time.Hour
	h := t / time.Hour
	t -= h * time.Hour
	m := t / time.Minute
	t -= m * time.Minute
	s := t / time.Second
	if d > 0 {
		return fmt.Sprintf("%d+%02d:%02d:%02d", d, h, m, s)
	}
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}
