package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// The benchmark's only wall-clock reads are these two helpers and the
// heap sampler's ticker; simulation code never sees them.

func now() time.Time { return time.Now() } //simlint:allow walltime -- benchmark stopwatch

func since(t time.Time) time.Duration { return time.Since(t) } //simlint:allow walltime -- benchmark stopwatch

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes
// while it runs. runtime/metrics reads do not stop the world, so the
// sampler costs the measured work one short read per tick.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapSampleEvery = 2 * time.Millisecond

func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{peak: heapObjectBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tk := time.NewTicker(heapSampleEvery) //simlint:allow walltime -- benchmark stopwatch
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	b := heapObjectBytes()
	h.mu.Lock()
	if b > h.peak {
		h.peak = b
	}
	h.mu.Unlock()
}

// reset restarts the peak from the current heap, so one sampler can
// measure several runs in turn.
func (h *heapSampler) reset() {
	h.mu.Lock()
	h.peak = heapObjectBytes()
	h.mu.Unlock()
}

// peakMB reports the peak since the last reset, in MiB.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// runtimeCounters is a snapshot of the allocator and GC counters the
// per-layer runtime metrics difference.
type runtimeCounters struct {
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64()}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU}
}

// span is one timed call into a layer. Spans of one operation (a
// sweep run or a served job) share Op; Parent is the span that made
// the call (0 for an operation's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name, cell string) int {
	at := since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Cell: cell, Start: at})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	at := since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds()})
	return len(t.spans)
}

// perOp groups the durations of one span name by operation and folds
// each group with agg: perOp(name, sum)[op] is op's total.
func (t *tracer) perOp(name string, agg func([]float64) float64) map[int]float64 {
	t.mu.Lock()
	byOp := map[int][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] = append(byOp[s.Op], s.seconds())
		}
	}
	t.mu.Unlock()
	out := map[int]float64{}
	for op, d := range byOp {
		out[op] = agg(d)
	}
	return out
}

// medianOp is the median across operations of perOp(name, agg).
func (t *tracer) medianOp(name string, agg func([]float64) float64) float64 {
	var xs []float64
	for _, x := range t.perOp(name, agg) {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return median(xs)
}

// durations lists every span of one name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, s.seconds())
		}
	}
	return xs
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
