// Package controller implements the decision-making heart of
// dualboot-oscar: the daemon programs on the two head nodes that
// exchange queue states on a fixed cycle and decide when to reboot
// idle compute nodes into the other operating system (paper §III-B3,
// §IV-A, Figure 11).
//
// The paper's deployed rule is first-come first-served over stuck
// queues; §V notes that "this could be improved to adapt the rules
// from diverse administration requirements", so alongside the paper's
// policy this package ships an adaptive suite: a threshold rule that
// reacts to pending-work imbalance, a hysteresis rule with separate
// donate/reclaim watermarks and a minimum dwell time, a predictive
// rule that extrapolates EWMA arrival rates across the switch
// latency, and a demand-proportional fair-share rule. ParsePolicy is
// the name registry every CLI flag and sweep axis resolves through.
package controller

import (
	"fmt"
	"time"

	"repro/internal/detector"
	"repro/internal/osid"
)

// SideState is everything the controller knows about one side of the
// hybrid when deciding.
type SideState struct {
	OS     osid.OS
	Report detector.Report

	// Node accounting, maintained by the cluster:
	TotalNodes   int // nodes booted into this OS; switching nodes count on neither side
	IdleNodes    int // up with no busy CPUs
	PendingAway  int // switch/reboot orders outstanding against this side
	CoresPerNode int

	// Richer demand info for the extension policies (the paper's
	// detectors expose only the head of the queue; these come from the
	// same scheduler interfaces).
	RunningJobs int
	QueuedJobs  int
	QueuedCPUs  int

	// ArrivedCPUs is the cumulative CPU demand ever submitted to this
	// side; the predictive policy differences it across cycles to
	// observe arrival rates.
	ArrivedCPUs int
	// SwitchLatency is the cluster's planning estimate for a donated
	// node to land on this side (shutdown + boot chain). The
	// predictive policy discounts switch benefit by it: backlog that
	// drains before a reboot completes is not worth a reboot.
	SwitchLatency time.Duration
}

// DonatableNodes is how many nodes this side could give away right now
// without touching running work.
func (s SideState) DonatableNodes() int {
	n := s.IdleNodes - s.PendingAway
	if n < 0 {
		return 0
	}
	return n
}

// nodesFor converts a CPU demand into node count on this side's
// hardware.
func (s SideState) nodesFor(cpus int) int {
	cpn := s.coresPerNode()
	n := (cpus + cpn - 1) / cpn
	if n < 1 {
		n = 1
	}
	return n
}

func (s SideState) coresPerNode() int {
	if s.CoresPerNode <= 0 {
		return 4
	}
	return s.CoresPerNode
}

// pressure is the side's queued CPU demand per core of its current
// capacity — the normalised backlog the adaptive policies compare
// across sides. A side with queued work but no nodes at all is under
// unbounded pressure; it saturates to the raw CPU count so comparisons
// stay finite and deterministic.
func (s SideState) pressure() float64 {
	cap := s.TotalNodes * s.coresPerNode()
	if cap <= 0 {
		return float64(s.QueuedCPUs)
	}
	return float64(s.QueuedCPUs) / float64(cap)
}

// needCPUs is the CPU demand the side cannot serve with its own idle
// capacity: queued CPUs minus idle cores, floored at the stuck
// detector's head-of-queue request (a wide job may be unable to use
// fragmented idle cores even when the arithmetic says they suffice).
func (s SideState) needCPUs() int {
	need := s.QueuedCPUs - s.IdleNodes*s.coresPerNode()
	if s.Report.Stuck && need < s.Report.NeededCPUs {
		need = s.Report.NeededCPUs
	}
	if need < 0 {
		return 0
	}
	return need
}

// Decision is a controller verdict for one cycle.
type Decision struct {
	Act    bool
	Target osid.OS // side that gains nodes
	Donor  osid.OS // side that loses nodes
	Nodes  int
	Reason string
}

// String renders the decision for logs.
func (d Decision) String() string {
	if !d.Act {
		return "no-switch: " + d.Reason
	}
	return fmt.Sprintf("switch %d node(s) %s->%s: %s", d.Nodes, d.Donor, d.Target, d.Reason)
}

// Policy decides whether to move nodes given both sides' states.
type Policy interface {
	Name() string
	Decide(now time.Duration, linux, windows SideState) Decision
}

// sidePairs orders the (want, donor) directions the way the control
// cycle does: the Windows report opens the cycle (Figure 11 steps
// 1–3), so a Windows request wins ties.
func sidePairs(linux, windows SideState) [2]struct{ want, donor SideState } {
	return [2]struct{ want, donor SideState }{
		{windows, linux},
		{linux, windows},
	}
}

// giveBound caps a donation at the donor's donatable idle nodes, its
// reserve floor, and the policy's per-cycle step.
func giveBound(donor SideState, want, reserve, maxStep int) int {
	n := want
	if avail := donor.DonatableNodes(); n > avail {
		n = avail
	}
	if keep := donor.TotalNodes - reserve; n > keep {
		n = keep
	}
	if maxStep > 0 && n > maxStep {
		n = maxStep
	}
	if n < 0 {
		return 0
	}
	return n
}

// FCFS is the paper's deployed policy: if exactly one scheduler is
// stuck and the other side has idle nodes, move enough nodes to run
// the stuck job. When both are stuck, the Windows request wins the tie
// because the control cycle begins with the Windows queue state
// arriving at the Linux decision maker (Figure 11 steps 1–3).
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Decide implements Policy.
func (FCFS) Decide(now time.Duration, linux, windows SideState) Decision {
	for _, pair := range sidePairs(linux, windows) {
		if !pair.want.Report.Stuck {
			continue
		}
		avail := pair.donor.DonatableNodes()
		if avail == 0 {
			continue
		}
		need := pair.donor.nodesFor(pair.want.Report.NeededCPUs)
		n := min(need, avail)
		return Decision{
			Act:    true,
			Target: pair.want.OS,
			Donor:  pair.donor.OS,
			Nodes:  n,
			Reason: fmt.Sprintf("%s stuck on job %s needing %d CPUs", pair.want.OS, pair.want.Report.StuckJobID, pair.want.Report.NeededCPUs),
		}
	}
	return Decision{Reason: "no stuck queue with donatable nodes"}
}

// Threshold donates when the pending-work imbalance between the sides
// exceeds a configurable ratio: the needy side's normalised backlog
// (queued CPUs per capacity core) must be at least Ratio times the
// donor's. Unlike FCFS it does not wait for a fully stuck scheduler —
// a queue merely growing faster than its side can serve already pulls
// nodes — but it reacts to the instantaneous queue every cycle, so on
// oscillating demand it switches eagerly in both directions.
type Threshold struct {
	// Ratio is the pending-work imbalance that triggers a donation
	// (needy pressure ≥ Ratio × donor pressure; default 2). Any
	// backlog against an idle donor trips the rule regardless of
	// Ratio.
	Ratio float64
	// MinQueuedCPUs is the smallest queued demand worth a reboot
	// (default 1).
	MinQueuedCPUs int
	// Reserve is the node floor the donor always keeps (default 1).
	Reserve int
	// MaxStep caps nodes moved per cycle (default 4).
	MaxStep int
}

func (p Threshold) withDefaults() Threshold {
	if p.Ratio <= 0 {
		p.Ratio = 2
	}
	if p.MinQueuedCPUs <= 0 {
		p.MinQueuedCPUs = 1
	}
	if p.Reserve <= 0 {
		p.Reserve = 1
	}
	if p.MaxStep <= 0 {
		p.MaxStep = 4
	}
	return p
}

// Name implements Policy.
func (p Threshold) Name() string { return "threshold" }

// Decide implements Policy.
func (p Threshold) Decide(now time.Duration, linux, windows SideState) Decision {
	p = p.withDefaults()
	for _, pair := range sidePairs(linux, windows) {
		want, donor := pair.want, pair.donor
		need := want.needCPUs()
		if need <= 0 || want.QueuedCPUs < p.MinQueuedCPUs {
			continue
		}
		pw, pd := want.pressure(), donor.pressure()
		if pd > 0 && pw < p.Ratio*pd {
			continue
		}
		n := giveBound(donor, donor.nodesFor(need), p.Reserve, p.MaxStep)
		if n <= 0 {
			continue
		}
		return Decision{
			Act:    true,
			Target: want.OS,
			Donor:  donor.OS,
			Nodes:  n,
			Reason: fmt.Sprintf("%s backlog %d CPUs, pressure %.2f vs %.2f (ratio %g)", want.OS, need, pw, pd, p.Ratio),
		}
	}
	return Decision{Reason: "pending-work imbalance under ratio"}
}

// Hysteresis is the anti-thrash rule: separate donate and reclaim
// watermarks open a dead band between "busy enough to pull nodes" and
// "idle enough to give them up", and a minimum dwell time after every
// switch stops the reboot ping-pong the paper's five-minute boot cost
// makes expensive. A side gains nodes only when its own pressure is
// above DonateWater while the donor's is below ReclaimWater — demand
// oscillating inside the band moves nothing.
type Hysteresis struct {
	// DonateWater is the normalised backlog (queued CPUs per capacity
	// core) above which a side may pull nodes (default 0.75).
	DonateWater float64
	// ReclaimWater is the donor-side pressure below which it may give
	// nodes up (default 0.25). DonateWater − ReclaimWater is the dead
	// band.
	ReclaimWater float64
	// MinDwell is the minimum time between acting decisions (default
	// DefaultDwell). A switch at t blocks every action before
	// t+MinDwell.
	MinDwell time.Duration
	// Reserve is the node floor the donor always keeps (default 1).
	Reserve int
	// MaxStep caps nodes moved per cycle (default 4).
	MaxStep int

	lastSwitch time.Duration
	switched   bool
}

func (p *Hysteresis) defaults() (donate, reclaim float64, dwell time.Duration, reserve, step int) {
	donate, reclaim, dwell, reserve, step = p.DonateWater, p.ReclaimWater, p.MinDwell, p.Reserve, p.MaxStep
	if donate <= 0 {
		donate = 0.75
	}
	if reclaim <= 0 {
		reclaim = 0.25
	}
	if dwell <= 0 {
		dwell = DefaultDwell
	}
	if reserve <= 0 {
		reserve = 1
	}
	if step <= 0 {
		step = 4
	}
	return
}

// Name implements Policy.
func (p *Hysteresis) Name() string { return "hysteresis" }

// Decide implements Policy.
func (p *Hysteresis) Decide(now time.Duration, linux, windows SideState) Decision {
	donate, reclaim, dwell, reserve, step := p.defaults()
	if p.switched && now-p.lastSwitch < dwell {
		return Decision{Reason: fmt.Sprintf("dwell: %v since last switch < %v", now-p.lastSwitch, dwell)}
	}
	for _, pair := range sidePairs(linux, windows) {
		want, donor := pair.want, pair.donor
		need := want.needCPUs()
		if need <= 0 || want.pressure() < donate || donor.pressure() > reclaim {
			continue
		}
		n := giveBound(donor, donor.nodesFor(need), reserve, step)
		if n <= 0 {
			continue
		}
		p.lastSwitch = now
		p.switched = true
		return Decision{
			Act:    true,
			Target: want.OS,
			Donor:  donor.OS,
			Nodes:  n,
			Reason: fmt.Sprintf("%s pressure %.2f over donate watermark %g, %s under reclaim %g", want.OS, want.pressure(), donate, donor.OS, reclaim),
		}
	}
	return Decision{Reason: "both sides inside the watermark band"}
}

// Predictive extrapolates demand instead of reacting to it: it keeps
// an exponentially weighted moving average of each side's CPU arrival
// rate (differencing SideState.ArrivedCPUs across cycles) and donates
// only when the backlog projected at switch-landing time — current
// queue plus expected arrivals over SwitchLatency, minus the idle
// capacity already on the side — is still positive. The switch
// latency is the discount: a queue that drains before a reboot could
// land never justifies the reboot, while a long boot chain raises the
// bar for acting at all.
type Predictive struct {
	// Alpha weights the newest rate observation in the EWMA (default
	// 0.3).
	Alpha float64
	// Reserve is the node floor the donor always keeps (default 1).
	Reserve int
	// MaxStep caps nodes moved per cycle (default 4).
	MaxStep int
	// FallbackLatency stands in when the gateway reports no
	// SwitchLatency estimate (default 5m, the paper's switch bound).
	FallbackLatency time.Duration

	warmed      bool
	lastNow     time.Duration
	lastArrived map[osid.OS]int
	rate        map[osid.OS]float64 // EWMA, CPUs per hour
}

// Name implements Policy.
func (p *Predictive) Name() string { return "predictive" }

// observe updates the per-side arrival-rate EWMAs from the cumulative
// arrival counters. The first cycle only primes the counters: there
// is no interval to rate over yet.
func (p *Predictive) observe(now time.Duration, sides ...SideState) bool {
	alpha := p.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	if p.lastArrived == nil {
		p.lastArrived = map[osid.OS]int{}
		p.rate = map[osid.OS]float64{}
	}
	dt := now - p.lastNow
	ready := p.warmed && dt > 0
	for _, s := range sides {
		if ready {
			obs := float64(s.ArrivedCPUs-p.lastArrived[s.OS]) / dt.Hours()
			p.rate[s.OS] = alpha*obs + (1-alpha)*p.rate[s.OS]
		}
		p.lastArrived[s.OS] = s.ArrivedCPUs
	}
	if dt > 0 || !p.warmed {
		p.lastNow = now
		p.warmed = true
	}
	return ready
}

// Decide implements Policy.
func (p *Predictive) Decide(now time.Duration, linux, windows SideState) Decision {
	reserve, step := p.Reserve, p.MaxStep
	if reserve <= 0 {
		reserve = 1
	}
	if step <= 0 {
		step = 4
	}
	if !p.observe(now, linux, windows) {
		return Decision{Reason: "warming up: no arrival-rate history yet"}
	}
	for _, pair := range sidePairs(linux, windows) {
		want, donor := pair.want, pair.donor
		horizon := want.SwitchLatency
		if horizon <= 0 {
			horizon = p.FallbackLatency
		}
		if horizon <= 0 {
			horizon = 5 * time.Minute
		}
		// Projected backlog when a donated node would land: what is
		// queued now, plus what the EWMA says arrives while the node
		// reboots, minus the idle cores already serving the side. A
		// stuck head-of-queue job floors the projection — idle cores
		// it cannot use do not serve it.
		projected := float64(want.QueuedCPUs) + p.rate[want.OS]*horizon.Hours() - float64(want.IdleNodes*want.coresPerNode())
		if want.Report.Stuck && projected < float64(want.Report.NeededCPUs) {
			projected = float64(want.Report.NeededCPUs)
		}
		if projected < 1 {
			continue // queue drains before a switch could land
		}
		// The donor must stay ahead of its own predicted demand after
		// the donation.
		donorProjected := float64(donor.QueuedCPUs) + p.rate[donor.OS]*horizon.Hours()
		surplus := float64(donor.DonatableNodes()*donor.coresPerNode()) - donorProjected
		if surplus < float64(donor.coresPerNode()) {
			continue
		}
		wantNodes := donor.nodesFor(int(projected + 0.5))
		if bySurplus := int(surplus) / donor.coresPerNode(); wantNodes > bySurplus {
			wantNodes = bySurplus
		}
		n := giveBound(donor, wantNodes, reserve, step)
		if n <= 0 {
			continue
		}
		return Decision{
			Act:    true,
			Target: want.OS,
			Donor:  donor.OS,
			Nodes:  n,
			Reason: fmt.Sprintf("%s projected backlog %.0f CPUs at +%v (rate %.1f cpu/h)", want.OS, projected, horizon, p.rate[want.OS]),
		}
	}
	return Decision{Reason: "no side with surviving projected backlog"}
}

// FairShare targets a node split proportional to total queued CPU
// demand on each side, rather than reacting only to fully stuck
// queues. It moves at most MaxStep nodes per cycle.
type FairShare struct {
	MaxStep int // per-cycle cap, default 2
}

// Name implements Policy.
func (p FairShare) Name() string { return "fairshare" }

// Decide implements Policy.
func (p FairShare) Decide(now time.Duration, linux, windows SideState) Decision {
	step := p.MaxStep
	if step <= 0 {
		step = 2
	}
	demandL := linux.QueuedCPUs + linux.RunningJobs // running jobs hold their side
	demandW := windows.QueuedCPUs + windows.RunningJobs
	total := linux.TotalNodes + windows.TotalNodes
	if total == 0 || demandL+demandW == 0 {
		return Decision{Reason: "no demand"}
	}
	wantL := total * demandL / (demandL + demandW)
	// Keep at least one node on a side that has any demand at all.
	if demandL > 0 && wantL == 0 {
		wantL = 1
	}
	if demandW > 0 && wantL == total {
		wantL = total - 1
	}
	delta := wantL - linux.TotalNodes
	switch {
	case delta > 0:
		n := min(min(delta, step), windows.DonatableNodes())
		if n <= 0 {
			return Decision{Reason: "windows has nothing to donate"}
		}
		return Decision{Act: true, Target: osid.Linux, Donor: osid.Windows, Nodes: n,
			Reason: fmt.Sprintf("fair split wants %d linux nodes, have %d", wantL, linux.TotalNodes)}
	case delta < 0:
		n := min(min(-delta, step), linux.DonatableNodes())
		if n <= 0 {
			return Decision{Reason: "linux has nothing to donate"}
		}
		return Decision{Act: true, Target: osid.Windows, Donor: osid.Linux, Nodes: n,
			Reason: fmt.Sprintf("fair split wants %d linux nodes, have %d", wantL, linux.TotalNodes)}
	default:
		return Decision{Reason: "split already fair"}
	}
}
