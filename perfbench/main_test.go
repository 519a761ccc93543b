package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/export"
	"repro/internal/osid"
	"repro/internal/sweep"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

// printedMetrics runs resultLine with every declared metric measured
// and returns the names and units the JSON result carries.
func printedMetrics(t *testing.T, defs []metricDef) []metricDef {
	t.Helper()
	rep := newReport()
	rep.check(nil)
	for i, d := range defs {
		rep.values[d.Name] = float64(i + 1)
	}
	line, err := resultLine(rep, defs)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("result header = %+v", res)
	}
	var out []metricDef
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Fatalf("metric %s not printed", d.Name)
		}
		out = append(out, metricDef{Name: d.Name, Unit: m.Unit, Better: d.Better})
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("printed %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	return out
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmark(t)
	if got := printedMetrics(t, endToEndDefs); !reflect.DeepEqual(got, bj.EndToEnd) {
		t.Errorf("end-to-end metrics printed:\n%v\nBENCHMARK.json:\n%v", got, bj.EndToEnd)
	}
	if got := printedMetrics(t, perLayerDefs); !reflect.DeepEqual(got, bj.PerLayer) {
		t.Errorf("per-layer metrics printed:\n%v\nBENCHMARK.json:\n%v", got, bj.PerLayer)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	var declared []string
	for name := range workloads {
		declared = append(declared, name)
	}
	sort.Strings(wl)
	sort.Strings(declared)
	if !reflect.DeepEqual(wl, declared) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", wl, declared)
	}
}

func TestResultLineRejectsMissingAndUndeclaredMetrics(t *testing.T) {
	rep := newReport()
	rep.check(nil)
	if _, err := resultLine(rep, endToEndDefs); err == nil || !strings.Contains(err.Error(), "not measured") {
		t.Errorf("missing metrics: err = %v", err)
	}
	for _, d := range endToEndDefs {
		rep.values[d.Name] = 1
	}
	rep.values["bogus"] = 1
	if _, err := resultLine(rep, endToEndDefs); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("undeclared metric: err = %v", err)
	}
}

func TestDesignCoversEveryPerLayerMetric(t *testing.T) {
	bj := readBenchmark(t)
	b, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		EndToEndMeaning map[string]string `json:"end_to_end_meaning"`
		Layers          []struct {
			Layer      string   `json:"layer"`
			Metrics    []string `json:"metrics"`
			Moves      []string `json:"moves"`
			On         []string `json:"on"`
			NoChangeOn []string `json:"no_change_on"`
			SmallOn    []string `json:"small_on"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &design); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, n := range names(bj.EndToEnd) {
		e2e[n] = true
		if design.EndToEndMeaning[n] == "" {
			t.Errorf("design.json does not define end-to-end metric %s", n)
		}
	}
	if len(design.EndToEndMeaning) != len(e2e) {
		t.Errorf("design.json defines %d end-to-end metrics, BENCHMARK.json has %d", len(design.EndToEndMeaning), len(e2e))
	}
	wl := map[string]bool{}
	for _, w := range bj.Workloads {
		wl[w.Name] = true
	}
	var covered []string
	for _, l := range design.Layers {
		covered = append(covered, l.Metrics...)
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layer %s moves unknown end-to-end metric %s", l.Layer, m)
			}
		}
		for _, list := range [][]string{l.On, l.NoChangeOn, l.SmallOn} {
			for _, w := range list {
				if !wl[w] {
					t.Errorf("layer %s names unknown workload %s", l.Layer, w)
				}
			}
		}
	}
	want := names(bj.PerLayer)
	sort.Strings(covered)
	sort.Strings(want)
	if !reflect.DeepEqual(covered, want) {
		t.Errorf("design.json layer metrics:\n%v\nBENCHMARK.json per_layer:\n%v", covered, want)
	}
}

// serveGrid is the serve workload's cold spec: small and fast, with
// switching, so the replay exercises every hook.
func serveGrid(t *testing.T) (sweep.Grid, []sweep.Cell) {
	t.Helper()
	g, cells, own, err := loadGrid("specs/serve.json", -1)
	if err != nil || !own {
		t.Fatalf("loadGrid: own=%v err=%v", own, err)
	}
	return g, cells
}

func TestReplayMatchesSweepRun(t *testing.T) {
	g, cells := serveGrid(t)
	ref, refCSV, err := sweepCSV(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, per, err := replaySweep(tr, 1, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(ref, got); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := export.WriteSweepCSV(&b, got.Rows()); err != nil {
		t.Fatal(err)
	}
	if err := checkCSV("replayed CSV", b.Bytes(), refCSV); err != nil {
		t.Error(err)
	}
	jobs, err := traceJobs(cells)
	if err != nil {
		t.Fatal(err)
	}
	var total counts
	for i, n := range per {
		if n.jobs != jobs[i] {
			t.Errorf("cell %d: replay saw %d jobs, trace has %d", i, n.jobs, jobs[i])
		}
		if err := checkBalance(cells[i].Name(), got.Results[i].Res.Summary, n.jobs, n.unfinished); err != nil {
			t.Error(err)
		}
		total.add(n)
	}
	if total.switches == 0 || total.pbsStarts == 0 || total.winStarts == 0 || total.cycles == 0 {
		t.Errorf("replay counted no switching or scheduling work: %+v", total)
	}
	for _, name := range []string{"sweep.run", "sweep.cell", "workload.build", "cluster.new", "cluster.schedule_trace", "simtime.drain", "metrics.summarise"} {
		if len(tr.durations(name)) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}

func TestCheckReplayCatchesDoctoredResult(t *testing.T) {
	g, _ := serveGrid(t)
	ref, _, err := sweepCSV(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	doctors := map[string]func(*sweep.Outcome){
		"events": func(o *sweep.Outcome) { o.Results[3].Res.EventsRun++ },
		"switches": func(o *sweep.Outcome) {
			o.Results[0].Res.Summary.Switches++
		},
		"completed": func(o *sweep.Outcome) {
			o.Results[5].Res.Summary.JobsCompleted = map[osid.OS]int{osid.Linux: -1}
		},
		"cells": func(o *sweep.Outcome) { o.Results = o.Results[1:] },
	}
	keys := make([]string, 0, len(doctors))
	for k := range doctors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, _, err := sweepCSV(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReplay(ref, got); err != nil {
			t.Fatalf("undoctored result rejected: %v", err)
		}
		doctors[k](got)
		if err := checkReplay(ref, got); err == nil {
			t.Errorf("doctored %s: replay check passed", k)
		}
	}
}

func TestAttributeRawChargesInnermostRepoFrame(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 3
          1   10000000: 4 5
          2   20000000: 6 3
          1   10000000: 7 3
Locations
     1: 0x1 M=1 sort.insertionSort /go/src/sort/zsortfunc.go:12:0 s=0
     2: 0x2 M=1 repro/internal/pbs.(*Server).reserve /repo/internal/pbs/server.go:10:0 s=0
     3: 0x3 M=1 main.main /repo/perfbench/main.go:1:0 s=0
     4: 0x4 M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1:0 s=0
     5: 0x5 M=1 runtime.goexit /go/src/runtime/asm.s:1:0 s=0
     6: 0x6 M=1 runtime.mallocgc /go/src/runtime/malloc.go:1:0 s=0
             repro/internal/metrics.(*Recorder).JobStarted /repo/internal/metrics/metrics.go:1:0 s=0
     7: 0x7 M=1 repro/internal/driver.Drain /repo/internal/driver/driver.go:1:0 s=0
Mappings
1: 0x0/0x0/0x0
`
	got, err := attributeRaw([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pbs": 0.03, "runtime": 0.01, "metrics": 0.02, "simtime": 0.01}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attributeRaw = %v, want %v", got, want)
	}
}

func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	k, err := newKernel()
	if err != nil {
		t.Fatal(err)
	}
	first := k.run()
	if n := testing.AllocsPerRun(20, func() {
		if k.run() != first {
			t.Fatal("kernel result changed between runs")
		}
	}); n != 0 {
		t.Errorf("kernel allocates %v times per run, want 0", n)
	}
}

func TestMeterRescalesByKernelTime(t *testing.T) {
	nom := calibNominal.Seconds()
	// Kernel runs that take 2.5× nominal on average and 2× at the
	// median: samples longer than a kernel run rescale to 0.4 of their
	// raw time, shorter ones to half.
	m := &meter{calibs: []float64{2 * nom, 2 * nom, nom, 5 * nom}, series: map[string][]float64{}, seriesT: map[string][]float64{}}
	m.record("op", 0.5)
	m.record("op", 0.25)
	m.record("short", nom/2)
	if got := m.speed(); got != 0.4 {
		t.Errorf("speed = %v, want 0.4", got)
	}
	if got := m.scaled("op"); !reflect.DeepEqual(got, []float64{0.2, 0.1}) {
		t.Errorf("scaled op = %v, want [0.2 0.1]", got)
	}
	if got := m.scaled("short"); !reflect.DeepEqual(got, []float64{nom / 4}) {
		t.Errorf("scaled short = %v, want [%v]", got, nom/4)
	}
}
