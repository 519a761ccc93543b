// Package pbs simulates the Torque/PBS batch system that OSCAR
// installs on the Linux head node. The simulation covers what
// dualboot-oscar interacts with: qsub with #PBS directives (Figure 4),
// a strict FCFS scheduler whose head-of-line blocking produces the
// "stuck" queue states the detector looks for, node state tracking,
// and the `qstat -f` / `pbsnodes` text output (Figures 7 and 8) that
// the detector scrapes because "PBS does not provide APIs".
package pbs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// JobState is the single-letter PBS job state.
type JobState byte

const (
	StateQueued   JobState = 'Q'
	StateRunning  JobState = 'R'
	StateExiting  JobState = 'E'
	StateComplete JobState = 'C'
	StateHeld     JobState = 'H'
)

// String returns the one-letter state code.
func (s JobState) String() string { return string(rune(s)) }

// ExecSlot is one virtual processor assignment: a node name and a CPU
// index on that node.
type ExecSlot struct {
	Node string
	CPU  int
}

// Job is a PBS batch job.
type Job struct {
	ID     string // "1185.eridani.qgg.hud.ac.uk"
	SeqNo  int
	Name   string
	Owner  string
	State  JobState
	Queue  string
	Server string

	// Resource request: nodes=Nodes:ppn=PPN.
	Nodes int
	PPN   int

	// Runtime is how long the job actually runs once started.
	Runtime time.Duration
	// Walltime is the requested limit (0 = unlimited). Jobs whose
	// Runtime exceeds Walltime are killed at the limit.
	Walltime time.Duration

	Priority   int
	Rerunnable bool
	JoinOE     bool
	OutputPath string

	QTime     time.Duration // submission (virtual time)
	StartTime time.Duration
	EndTime   time.Duration

	ExecHost []ExecSlot

	// Exec, when non-nil, runs at job start. dualboot-oscar packs the
	// OS switch action into such a job (Figure 4): change the boot
	// default, then reboot.
	Exec func(hosts []string)
	// OnEnd, when non-nil, runs when the job finishes or is killed.
	OnEnd func(j *Job)

	queue         *Queue // resolved at Qsub; queues are never deleted
	killedAtLimit bool
	failed        bool
}

// CPUs returns the total virtual processors the job needs.
func (j *Job) CPUs() int { return j.Nodes * j.PPN }

// KilledAtWalltime reports whether the server killed the job: at its
// walltime limit, or by qdel.
func (j *Job) KilledAtWalltime() bool { return j.killedAtLimit }

// Failed reports whether the job died without completing its work —
// a non-rerunnable job interrupted by node loss. Walltime kills are
// reported separately through KilledAtWalltime.
func (j *Job) Failed() bool { return j.failed }

// ExecHostString renders the exec_host attribute the way PBS does:
// "node16/3+node16/2+node16/1+node16/0".
func (j *Job) ExecHostString(domain string) string {
	parts := make([]string, len(j.ExecHost))
	for i, s := range j.ExecHost {
		parts[i] = fmt.Sprintf("%s/%d", fqdn(s.Node, domain), s.CPU)
	}
	return strings.Join(parts, "+")
}

// SubmitRequest is the programmatic form of qsub.
type SubmitRequest struct {
	Name     string
	Owner    string
	Queue    string
	Nodes    int
	PPN      int
	Runtime  time.Duration
	Walltime time.Duration
	Priority int
	JoinOE   bool
	Output   string
	Rerun    bool
	Exec     func(hosts []string)
	OnEnd    func(j *Job)
}

// normalise applies PBS defaults.
func (r *SubmitRequest) normalise() error {
	if r.Nodes <= 0 {
		r.Nodes = 1
	}
	if r.PPN <= 0 {
		r.PPN = 1
	}
	if r.Runtime < 0 {
		return fmt.Errorf("pbs: negative runtime")
	}
	if r.Name == "" {
		r.Name = "STDIN"
	}
	if r.Owner == "" {
		r.Owner = "nobody"
	}
	return nil
}

// ScriptJob is the result of parsing a PBS job script.
type ScriptJob struct {
	Request  SubmitRequest
	Commands []string // non-directive, non-comment lines
}

// ParseScript parses a job script with #PBS directives, accepting the
// paper's Figure 4 verbatim. Supported directives: -l nodes=N:ppn=M,
// -l walltime=HH:MM:SS, -N name, -q queue, -j oe, -o path, -r y|n,
// -p priority.
func ParseScript(script string) (*ScriptJob, error) {
	out := &ScriptJob{}
	req := &out.Request
	for lineNo, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#PBS") {
			directive := strings.TrimSpace(strings.TrimPrefix(line, "#PBS"))
			if directive == "" {
				continue
			}
			if err := applyDirective(req, directive); err != nil {
				return nil, fmt.Errorf("pbs: script line %d: %w", lineNo+1, err)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // plain comment, including the shebang-adjacent banner
		}
		out.Commands = append(out.Commands, line)
	}
	if err := req.normalise(); err != nil {
		return nil, err
	}
	return out, nil
}

func applyDirective(req *SubmitRequest, directive string) error {
	flag, rest, _ := strings.Cut(directive, " ")
	rest = strings.TrimSpace(rest)
	switch flag {
	case "-l":
		return applyResourceList(req, rest)
	case "-N":
		if rest == "" {
			return fmt.Errorf("-N needs a name")
		}
		req.Name = rest
	case "-q":
		req.Queue = rest
	case "-j":
		req.JoinOE = rest == "oe"
	case "-o":
		req.Output = rest
	case "-r":
		req.Rerun = rest == "y"
	case "-p":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("bad priority %q", rest)
		}
		req.Priority = n
	default:
		// Unknown directives are ignored, as qsub does for unsupported
		// attribute flags in simple deployments.
	}
	return nil
}

// applyResourceList parses "-l" values: "nodes=1:ppn=4",
// "walltime=01:00:00", or comma-separated combinations.
func applyResourceList(req *SubmitRequest, spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("bad resource %q", item)
		}
		switch key {
		case "nodes":
			nodes, ppn, err := parseNodesSpec(val)
			if err != nil {
				return err
			}
			req.Nodes, req.PPN = nodes, ppn
		case "walltime":
			d, err := parseWalltime(val)
			if err != nil {
				return err
			}
			req.Walltime = d
		default:
			// other resources (mem, etc.) not modelled
		}
	}
	return nil
}

// parseNodesSpec parses "1:ppn=4" (also bare "2" meaning ppn=1).
func parseNodesSpec(val string) (nodes, ppn int, err error) {
	ppn = 1
	parts := strings.Split(val, ":")
	nodes, err = strconv.Atoi(parts[0])
	if err != nil || nodes <= 0 {
		return 0, 0, fmt.Errorf("bad nodes spec %q", val)
	}
	for _, p := range parts[1:] {
		if after, ok := strings.CutPrefix(p, "ppn="); ok {
			ppn, err = strconv.Atoi(after)
			if err != nil || ppn <= 0 {
				return 0, 0, fmt.Errorf("bad ppn in %q", val)
			}
		}
		// node properties (":all" etc.) accepted and ignored
	}
	return nodes, ppn, nil
}

// parseWalltime parses "HH:MM:SS" or "MM:SS" or plain seconds.
func parseWalltime(val string) (time.Duration, error) {
	parts := strings.Split(val, ":")
	var h, m, s int
	var err error
	switch len(parts) {
	case 1:
		s, err = strconv.Atoi(parts[0])
	case 2:
		m, err = strconv.Atoi(parts[0])
		if err == nil {
			s, err = strconv.Atoi(parts[1])
		}
	case 3:
		h, err = strconv.Atoi(parts[0])
		if err == nil {
			m, err = strconv.Atoi(parts[1])
		}
		if err == nil {
			s, err = strconv.Atoi(parts[2])
		}
	default:
		return 0, fmt.Errorf("bad walltime %q", val)
	}
	if err != nil || h < 0 || m < 0 || s < 0 {
		return 0, fmt.Errorf("bad walltime %q", val)
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(s)*time.Second, nil
}

func fqdn(name, domain string) string {
	if domain == "" || strings.Contains(name, ".") {
		return name
	}
	return name + "." + domain
}
