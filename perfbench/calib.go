package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// A shared cloud host changes speed by tens of percent within seconds
// and from one minute to the next: on a 2-vCPU Xeon guest a fixed CPU
// loop timed back to back drifted by as much as the workloads do, so
// runs of the same code minutes apart disagree by more than any useful
// bound. Every end-to-end time is therefore rescaled by the speed of a
// fixed reference kernel, timed again and again between the measured
// operations of the same run. The kernel uses the standard library
// only and keeps its buffers outside the Go heap, so they change
// neither the heap metrics nor how often the collector runs; no change
// to the program under test can speed it up or slow it down, so what
// it sees is the host.
//
// A rescaled time reads as the seconds the work would take on a host on
// which the kernel takes calibNominal. The raw host seconds are printed
// beside the result, and every kernel run and raw sample is written to
// the output directory (meter-<workload>-seed<n>.json).

const (
	// calibNominal is the kernel time the rescaled times refer to,
	// about its median on a 2.1 GHz Xeon vCPU.
	calibNominal = 1500 * time.Microsecond
	// calibTable is the random-read table's length: 256 KiB of words,
	// which stays in the core's own caches. An 8 MiB table, beyond
	// them, drifted far more than the workloads did and tracked them
	// worse.
	calibTable = 1 << 15
	// calibKeys values are sorted and summed into calibKeys/4 map keys.
	calibKeys  = 1 << 13
	calibReads = 1 << 16
)

// kernel is the reference work, with its buffers made once: the table
// and the values in anonymous memory, the map (about 50 KiB) on the
// heap.
type kernel struct {
	xs    []uint64
	m     map[uint64]uint64
	table []uint64
}

func newKernel() (*kernel, error) {
	words := calibTable + calibKeys
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	k := &kernel{table: all[:calibTable], xs: all[calibTable:], m: make(map[uint64]uint64, calibKeys/4)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.table {
		x = xorshift(x)
		k.table[i] = x
	}
	return k, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run does one fixed pass: map inserts, a sort and dependent random
// reads. The result only keeps the compiler from dropping the work.
func (k *kernel) run() uint64 {
	x := uint64(0x2545F4914F6CDD1D)
	clear(k.m)
	for i := range k.xs {
		x = xorshift(x)
		k.xs[i] = x
		k.m[x&(calibKeys/4-1)] += x
	}
	slices.Sort(k.xs)
	s := uint64(len(k.m))
	for i := 0; i < calibReads; i++ {
		s = k.table[(s^k.xs[i&(calibKeys-1)])&(calibTable-1)]
	}
	return s
}

// meter rescales timed samples by host speed: every sample of a run
// is multiplied by calibNominal over the kernel's time across the
// whole run (its mean or its median; see scaled). The calibrations are
// spread through the run, so that time is the host's speed while the
// samples were taken. Time the hypervisor takes from the vCPU
// lengthens a few kernel runs a lot rather than every run a little,
// and slows a long operation by its share of the run, which is what
// the mean measures. The speed is run-wide, not taken from the
// calibrations next to each sample, because the kernel tracks the
// host's drift over seconds but not the jitter of single operations.
type meter struct {
	k      *kernel
	calibs []float64 // seconds per kernel run
	at     time.Time // when the last calibration ended
	sink   uint64
	series map[string][]float64
	// When each kernel run and sample ended, in seconds since start;
	// only written out by dump.
	start   time.Time
	calibT  []float64
	seriesT map[string][]float64
}

func newMeter() (*meter, error) {
	k, err := newKernel()
	if err != nil {
		return nil, err
	}
	return &meter{k: k, series: map[string][]float64{}, start: now(), seriesT: map[string][]float64{}}, nil
}

// calibrate times reps kernel runs.
func (m *meter) calibrate(reps int) {
	for i := 0; i < reps; i++ {
		t0 := now()
		m.sink += m.k.run()
		m.calibs = append(m.calibs, since(t0).Seconds())
		m.calibT = append(m.calibT, since(m.start).Seconds())
	}
	m.at = now()
}

// calibrateEvery calibrates with reps kernel runs if d has passed since
// the last calibration.
func (m *meter) calibrateEvery(d time.Duration, reps int) {
	if since(m.at) >= d {
		m.calibrate(reps)
	}
}

// record adds a raw sample, in seconds, to a series.
func (m *meter) record(name string, raw float64) {
	m.series[name] = append(m.series[name], raw)
	m.seriesT[name] = append(m.seriesT[name], since(m.start).Seconds())
}

// speed is the host's speed over the run relative to nominal: above 1
// means the kernel ran faster than calibNominal.
func (m *meter) speed() float64 {
	return calibNominal.Seconds() * float64(len(m.calibs)) / sum(m.calibs)
}

// scaled lists a series rescaled to the nominal kernel speed. A stall
// of the vCPU stretches the few samples shorter than a kernel run that
// it lands on and leaves the rest alone, so such samples (set-up,
// cached reads) follow the typical speed, the kernel's median; longer
// samples absorb stalls in proportion to their length and follow the
// kernel's mean.
func (m *meter) scaled(name string) []float64 {
	xs := m.series[name]
	typical := calibNominal.Seconds() / median(m.calibs)
	if median(xs) >= calibNominal.Seconds() {
		return scale(xs, m.speed())
	}
	return scale(xs, typical)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// noteTails prints the 90th percentiles of the operation latencies, in
// ms. They are not metrics: on a shared host their spread between runs
// of the same code is set by how often the hypervisor stalls the vCPU,
// not by the program.
func noteTails(rep *report, doneMS, hitMS []float64) {
	rep.notef("tails (not gated): done_ms_p90 %.6g of %d, hit_ms_p90 %.6g of %d",
		quantile(doneMS, 0.9), len(doneMS), quantile(hitMS, 0.9), len(hitMS))
}

// noteSpeed prints the host speed and the raw medians of some series
// beside the rescaled result.
func noteSpeed(rep *report, m *meter, series ...string) {
	rep.notef("host speed %.3f of nominal over %d kernel runs (median %.3f ms, typical speed %.3f)",
		m.speed(), len(m.calibs), median(m.calibs)*1e3, calibNominal.Seconds()/median(m.calibs))
	for _, name := range series {
		rep.notef("raw %s median %.6g, rescaled %.6g", name, median(m.series[name]), median(m.scaled(name)))
	}
}

// dump writes every kernel run and raw sample, with the time each
// ended, as one JSON object.
func (m *meter) dump(path string) error {
	b, err := json.Marshal(map[string]any{"calib": m.calibs, "calibT": m.calibT, "series": m.series, "seriesT": m.seriesT})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
