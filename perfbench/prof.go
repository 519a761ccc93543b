package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// repoPrefix marks the program's own packages in profile frames.
const repoPrefix = "repro/internal/"

// layerOf folds a package into the layer the benchmark reports it
// under: the quiescence driver runs the engine, and the communicator
// bus and boot manager are the controller's switching path.
var layerOf = map[string]string{
	"driver":  "simtime",
	"comm":    "controller",
	"bootmgr": "controller",
}

// selfLayers are the layers with a *.self_s metric.
var selfLayers = []string{"pbs", "winhpc", "simtime", "cluster", "metrics", "runtime", "controller"}

// profileLayers reads a CPU profile with the toolchain's pprof and
// returns sampled CPU seconds per layer.
func profileLayers(path string) (map[string]float64, error) {
	raw, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	return attributeRaw(raw)
}

// attributeRaw parses `go tool pprof -raw` output and charges each
// sample's CPU time to the innermost repro/internal/<pkg> frame on its
// stack, so sort.Slice called from pbs counts as pbs. Samples with no
// repository frame (GC workers, the scheduler, net/http) count as
// runtime.
func attributeRaw(raw []byte) (map[string]float64, error) {
	type sample struct {
		ns   float64
		locs []int
	}
	var (
		samples []sample
		funcs   = map[int][]string{} // location -> frames, innermost first
		section string
		valueAt = -1
		columns int
		lastLoc int
	)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
			continue
		case len(fields) == 0:
			continue
		}
		switch section {
		case "Samples:":
			if valueAt < 0 {
				// The header names the value columns.
				for i, f := range fields {
					if f == "cpu/nanoseconds" {
						valueAt = i
					}
				}
				if valueAt < 0 {
					return nil, fmt.Errorf("pprof: no cpu/nanoseconds column in %q", line)
				}
				columns = len(fields)
				continue
			}
			// "count ns: loc loc ..."; label lines have another shape.
			if len(fields) < columns || !strings.HasSuffix(fields[columns-1], ":") {
				continue
			}
			ns, err := strconv.ParseFloat(strings.TrimSuffix(fields[valueAt], ":"), 64)
			if err != nil {
				return nil, fmt.Errorf("pprof: sample %q: %w", line, err)
			}
			s := sample{ns: ns}
			for _, f := range fields[columns:] {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("pprof: sample %q: %w", line, err)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			if id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":")); err == nil && strings.HasSuffix(fields[0], ":") {
				// "N: 0xADDR [M=n] func file:line s=n"
				lastLoc = id
				rest := fields[2:]
				if len(rest) > 0 && strings.HasPrefix(rest[0], "M=") {
					rest = rest[1:]
				}
				if len(rest) > 0 {
					funcs[id] = append(funcs[id], rest[0])
				}
			} else {
				// A continuation line: the next frame inlined outward.
				funcs[lastLoc] = append(funcs[lastLoc], fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[stackLayer(s.locs, funcs)] += s.ns / 1e9
	}
	return out, nil
}

// stackLayer names the layer of the innermost repository frame of a
// stack given leaf first.
func stackLayer(locs []int, funcs map[int][]string) string {
	for _, l := range locs {
		for _, fn := range funcs[l] {
			if !strings.HasPrefix(fn, repoPrefix) {
				continue
			}
			pkg := fn[len(repoPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			return pkg
		}
	}
	return "runtime"
}

// setSelf reports sampled self seconds per operation for the layers
// with a metric, and notes the full split, largest first.
func setSelf(rep *report, self map[string]float64, ops float64) {
	for _, l := range selfLayers {
		rep.values[l+".self_s"] = self[l] / ops
	}
	type share struct {
		layer string
		s     float64
	}
	var all []share
	total := 0.0
	for l, s := range self {
		all = append(all, share{l, s})
		total += s
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].layer < all[j].layer
	})
	var b strings.Builder
	for _, s := range all {
		fmt.Fprintf(&b, " %s=%.1f%%", s.layer, 100*s.s/total)
	}
	rep.notef("profile: %.2fs sampled CPU over %g operations;%s", total, ops, b.String())
}

// profile is a CPU profile in progress.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layers stops the profile and attributes its samples to layers.
func (p *profile) layers() (map[string]float64, error) {
	if err := p.stop(); err != nil {
		return nil, err
	}
	return profileLayers(p.path)
}
