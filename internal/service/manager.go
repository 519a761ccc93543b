package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/export"
	"repro/internal/sweep"
)

// Job states. A job is born queued, transitions to running when the
// executor picks it up, and ends done or failed. Every transition is
// fsynced to the job's record before it is announced, so the on-disk
// state never runs ahead of what observers were told. A daemon killed
// while a job is queued or running re-enqueues it on the next start.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one submitted sweep: the persisted record under
// <state-dir>/jobs/<id>.json and the API's wire shape. Records carry
// no timestamps — the state directory, like every other artifact, is
// a pure function of what was submitted.
type Job struct {
	ID string `json:"id"`
	// Name echoes the spec document's name field.
	Name string `json:"name,omitempty"`
	// SpecHash is the content address of the job's canonical spec
	// bytes (sweep.SpecHash) — the key of its checkpoints and its
	// cache entry.
	SpecHash string `json:"spec_hash"`
	State    string `json:"state"`
	// Cells is the grid's expansion size; CellsDone counts finished
	// cells (advisory while running — recovery recomputes it from the
	// checkpoint directory).
	Cells     int `json:"cells"`
	CellsDone int `json:"cells_done"`
	// Cached marks a job answered entirely from the result cache —
	// no cell ran.
	Cached bool `json:"cached,omitempty"`
	// Error is the failure reason of a failed job.
	Error string `json:"error,omitempty"`
}

// manager owns the job table, the pending queue and the single
// executor loop. One job executes at a time — parallelism lives
// inside the job, where sweep.Run's worker pool keeps the
// workers-1-vs-N byte-identity guarantee — so two jobs can never
// interleave their state transitions.
type manager struct {
	st      *store
	bc      *broadcaster
	workers int
	// root is the spec root: the only directory a served spec's swf
	// trace paths may resolve into (see confineSpecPaths).
	root string

	mu     sync.Mutex
	jobs   map[string]*Job
	byHash map[string]string // spec hash -> job id serving that spec
	seq    int

	qmu     sync.Mutex
	qcond   *sync.Cond
	pending []string
	stopped bool

	stopCh   chan struct{}
	stopOnce sync.Once
	started  bool
	loopDone chan struct{}

	// cellHook is a test seam: called after each cell's checkpoint
	// and event have landed, outside all manager locks. The
	// crash-recovery test uses it to stop the daemon at an exact
	// point in the sweep.
	cellHook func(jobID string, index, done int)
}

// newManager opens the job table from the state store and recovers
// interrupted work: every job found queued or running is reset to
// queued (its CellsDone recomputed from the checkpoint directory) and
// re-enqueued in ID order.
func newManager(st *store, workers int, root string) (*manager, error) {
	m := &manager{
		st:       st,
		bc:       newBroadcaster(),
		workers:  workers,
		root:     root,
		jobs:     map[string]*Job{},
		byHash:   map[string]string{},
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	m.qcond = sync.NewCond(&m.qmu)

	entries, err := os.ReadDir(st.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(st.jobPath(strings.TrimSuffix(name, ".json")))
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		var j Job
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("service: job record %s: %w", name, err)
		}
		m.jobs[j.ID] = &j
		ids = append(ids, j.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "j")); err == nil && n > m.seq {
			m.seq = n
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := m.jobs[id]
		// The hash index prefers a done job (its result is live in the
		// cache); otherwise the earliest non-failed job serves the
		// hash. Failed jobs never do — resubmitting retries.
		if cur, ok := m.byHash[j.SpecHash]; !ok {
			if j.State != StateFailed {
				m.byHash[j.SpecHash] = id
			}
		} else if m.jobs[cur].State != StateDone && j.State == StateDone {
			m.byHash[j.SpecHash] = id
		}
	}
	for _, id := range ids {
		j := m.jobs[id]
		if j.State != StateQueued && j.State != StateRunning {
			continue
		}
		j.State = StateQueued
		j.CellsDone = m.st.countCheckpoints(j.SpecHash)
		if err := m.persistLocked(j); err != nil {
			return nil, err
		}
		m.pending = append(m.pending, id)
	}
	return m, nil
}

// start launches the executor loop.
func (m *manager) start() {
	m.started = true
	go m.runLoop()
}

// stop cancels the in-flight sweep (between cells) and stops the
// executor loop. Idempotent.
func (m *manager) stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.qmu.Lock()
	m.stopped = true
	m.qcond.Broadcast()
	m.qmu.Unlock()
}

// wait blocks until the executor loop has exited — after it returns,
// nothing writes to the state directory anymore.
func (m *manager) wait() {
	if m.started {
		<-m.loopDone
	}
}

// stopped reports the channel closed by stop; the SSE handlers select
// on it so shutdown does not hang on open streams.
func (m *manager) stopping() <-chan struct{} { return m.stopCh }

func (m *manager) runLoop() {
	defer close(m.loopDone)
	for {
		m.qmu.Lock()
		for len(m.pending) == 0 && !m.stopped {
			m.qcond.Wait()
		}
		if m.stopped {
			m.qmu.Unlock()
			return
		}
		id := m.pending[0]
		m.pending = m.pending[1:]
		m.qmu.Unlock()
		m.execute(id)
	}
}

func (m *manager) enqueue(id string) {
	m.qmu.Lock()
	m.pending = append(m.pending, id)
	m.qcond.Signal()
	m.qmu.Unlock()
}

// submit registers a spec: an existing non-failed job for the same
// content address is returned as-is (created=false); otherwise a new
// job is created — born done when the cache already holds the
// result, queued otherwise.
func (m *manager) submit(sp sweep.Spec, canonical []byte, hash string) (Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id, ok := m.byHash[hash]; ok {
		if j := m.jobs[id]; j != nil && j.State != StateFailed {
			return *j, false, nil
		}
	}
	if !fileExists(m.st.specPath(hash)) {
		if err := writeFileSync(m.st.specPath(hash), canonical); err != nil {
			return Job{}, false, err
		}
	}
	m.seq++
	job := &Job{
		ID:       fmt.Sprintf("j%06d", m.seq),
		Name:     sp.Name,
		SpecHash: hash,
		State:    StateQueued,
		Cells:    len(sp.Grid.Expand()),
	}
	fromCache := m.st.cacheHas(hash)
	if fromCache {
		job.State = StateDone
		job.Cached = true
		job.CellsDone = job.Cells
	}
	if err := m.persistLocked(job); err != nil {
		return Job{}, false, err
	}
	m.jobs[job.ID] = job
	m.byHash[hash] = job.ID
	m.bc.emit(Event{Type: "queued", Job: job.ID, Total: job.Cells})
	if fromCache {
		m.bc.emit(Event{Type: "done", Job: job.ID, Done: job.Cells, Total: job.Cells, Cached: true})
	} else {
		m.enqueue(job.ID)
	}
	return *job, true, nil
}

// job returns a copy of a job record.
func (m *manager) job(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

func (m *manager) jobCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// execute runs one queued job to completion (or to cancellation —
// in which case the job is deliberately left running on disk, the
// exact state a crash leaves, so the next start resumes it).
func (m *manager) execute(id string) {
	m.mu.Lock()
	job := m.jobs[id]
	if job == nil || job.State == StateDone || job.State == StateFailed {
		m.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.CellsDone = 0 // recounted as cells land, checkpointed ones included
	perr := m.persistLocked(job)
	hash, total := job.SpecHash, job.Cells
	m.mu.Unlock()
	if perr != nil {
		m.fail(job, perr)
		return
	}
	m.bc.emit(Event{Type: "running", Job: id, Total: total})

	f, err := os.Open(m.st.specPath(hash))
	if err != nil {
		m.fail(job, err)
		return
	}
	sp, err := sweep.LoadSpec(f)
	f.Close()
	if err != nil {
		m.fail(job, err)
		return
	}
	// Re-pin the spec's trace paths to the server root. The canonical
	// bytes store the paths as submitted (relative, guard-checked), so
	// every execution — first run or post-crash resume — must confine
	// them again before the sweep opens a file.
	sp, err = confineSpecPaths(sp, m.root)
	if err != nil {
		m.fail(job, err)
		return
	}
	if m.st.cacheHas(hash) {
		m.finish(job, true)
		return
	}

	out, err := sweep.Run(sweep.Config{
		Grid:    sp.Grid,
		Workers: m.workers,
		Cancel:  m.stopCh,
		Cached: func(c sweep.Cell) (sweep.CellResult, bool) {
			return m.st.loadCheckpoint(hash, c)
		},
		Progress: func(r sweep.CellResult) { m.onCell(job, total, r) },
	})
	if err != nil {
		m.fail(job, err)
		return
	}
	for _, r := range out.Results {
		if errors.Is(r.Err, sweep.ErrCanceled) {
			return // interrupted: resume from checkpoints on next start
		}
	}
	var csv, js bytes.Buffer
	if err := export.WriteSweepCSV(&csv, out.Rows()); err != nil {
		m.fail(job, err)
		return
	}
	if err := export.WriteSweepJSON(&js, out.Rows()); err != nil {
		m.fail(job, err)
		return
	}
	if err := m.st.writeCache(hash, csv.Bytes(), js.Bytes()); err != nil {
		m.fail(job, err)
		return
	}
	m.finish(job, false)
}

// onCell is sweep.Run's Progress hook: checkpoint first, then count
// and announce — an event must never report a cell the disk does not
// yet hold. Checkpoint write errors are tolerated (the result is
// still in memory and the final cache write will surface a sick
// disk); only the resume-after-crash guarantee degrades.
func (m *manager) onCell(job *Job, total int, r sweep.CellResult) {
	m.st.writeCheckpoint(job.SpecHash, r) //nolint:errcheck // see above
	m.mu.Lock()
	job.CellsDone++
	done := job.CellsDone
	m.mu.Unlock()
	e := Event{Type: "cell", Job: job.ID, Cell: r.Cell.Name(), Index: r.Cell.Index, Done: done, Total: total}
	if r.Err != nil {
		e.Err = r.Err.Error()
	}
	m.bc.emit(e)
	if m.cellHook != nil {
		m.cellHook(job.ID, r.Cell.Index, done)
	}
}

func (m *manager) finish(job *Job, cached bool) {
	m.mu.Lock()
	job.State = StateDone
	job.Cached = cached
	job.CellsDone = job.Cells
	job.Error = ""
	total := job.Cells
	err := m.persistLocked(job)
	m.mu.Unlock()
	if err != nil {
		m.fail(job, err)
		return
	}
	// Finish every side effect before announcing: a client woken by
	// "done" must find the transition complete, checkpoints cleared.
	m.st.clearCheckpoints(job.SpecHash)
	m.bc.emit(Event{Type: "done", Job: job.ID, Done: total, Total: total, Cached: cached})
}

func (m *manager) fail(job *Job, ferr error) {
	m.mu.Lock()
	job.State = StateFailed
	job.Error = ferr.Error()
	m.persistLocked(job) //nolint:errcheck // best-effort: the disk may be the failure
	done, total := job.CellsDone, job.Cells
	m.mu.Unlock()
	m.bc.emit(Event{Type: "failed", Job: job.ID, Done: done, Total: total, Err: ferr.Error()})
}

// persistLocked fsyncs a job record; callers hold m.mu (or own the
// job exclusively, as newManager does).
func (m *manager) persistLocked(j *Job) error {
	b, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return writeFileSync(m.st.jobPath(j.ID), append(b, '\n'))
}
