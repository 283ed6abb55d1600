package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/serve"
	"repro/internal/volume"
)

// Limits that keep a wedged job from hanging the benchmark.
const (
	pollTimeout = 30 * time.Second
	jobTimeout  = 150 * time.Second
)

// tally counts attempted and failed operations: HTTP requests, jobs and
// output checks. It is shared by the submitter and the watcher.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

// check counts one operation and records why it failed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
		t.mu.Unlock()
	}
	return ok
}

// service is one in-process job service: a serve.Manager over an
// on-disk serve.Journal, reached only through serve.NewHandler's
// ServeHTTP, so no socket is bound. It is configured as cmd/refined is
// by default (queue 16, one executor, default stream shape).
type service struct {
	journal *serve.Journal
	m       *serve.Manager
	h       http.Handler
	ops     *tally
	// cursor is the submitter's position in the process-wide event
	// log; it carries over between jobs and services.
	cursor  *uint64
	current atomic.Value // job id the watcher reads, a string
	// watchMu is held by the watcher for each round of reads, and by the
	// submitter while it traces a job, so the watcher's traffic stays
	// out of the traced figures.
	watchMu sync.Mutex

	// The service's Options callbacks, counted and checked against each
	// job's status (checkJob) and the jobs submitted (stop).
	cbMu      sync.Mutex
	onLevel   map[string]int
	onMap     map[string]int
	logLines  int
	submitted int
}

// startService opens a journal in dir and starts a manager on it.
func startService(dir string, ops *tally, cursor *uint64) (*service, error) {
	j, err := serve.OpenJournal(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	s := &service{journal: j, ops: ops, cursor: cursor, onLevel: map[string]int{}, onMap: map[string]int{}}
	s.current.Store("")
	count := func(n map[string]int, id string) {
		s.cbMu.Lock()
		n[id]++
		s.cbMu.Unlock()
	}
	opt := serve.Options{
		QueueDepth: 16,
		RunWorkers: 1,
		Journal:    j,
		OnLevel:    func(id string, _ int) { count(s.onLevel, id) },
		OnCycleMap: func(id string, _ int) { count(s.onMap, id) },
		Logf: func(string, ...any) {
			s.cbMu.Lock()
			s.logLines++
			s.cbMu.Unlock()
		},
	}
	m, err := serve.NewManager(opt)
	if err != nil {
		return nil, fmt.Errorf("starting manager: %v (closing journal: %v)", err, j.Close())
	}
	m.Start()
	s.m = m
	s.h = serve.NewHandler(m)
	return s, nil
}

// stop drains the manager and closes the journal. A job that ran
// cleanly logs two lines, one when accepted and one when terminal; any
// other count means a missed state change or a logged error.
func (s *service) stop() error {
	s.m.Drain()
	s.cbMu.Lock()
	s.ops.check(s.logLines == 2*s.submitted, "service logged %d lines for %d jobs, want 2 per job", s.logLines, s.submitted)
	s.cbMu.Unlock()
	return s.journal.Close()
}

// do serves one request in process and counts it: a non-2xx response
// is a failed operation.
func (s *service) do(method, target string, body []byte, timeout time.Duration) (int, []byte, float64) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req := httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	t0 := time.Now()
	s.h.ServeHTTP(rr, req)
	d := time.Since(t0).Seconds()
	s.ops.check(rr.Code/100 == 2, "%s %s: HTTP %d", method, target, rr.Code)
	return rr.Code, rr.Body.Bytes(), d
}

// jobRun is one job as the client saw it.
type jobRun struct {
	id         string
	status     serve.JobStatus
	turnaround float64 // submit to terminal, seconds
	submitS    float64 // the POST's ServeHTTP time
	readS      float64 // the final status GET's ServeHTTP time
}

// runJob submits spec and waits for it to reach a terminal state by
// long-polling the job's event stream, then reads its final status.
func (s *service) runJob(spec serve.JobSpec) (jobRun, error) {
	var jr jobRun
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, fmt.Errorf("encoding job spec: %w", err)
	}
	t0 := time.Now()
	code, resp, d := s.do(http.MethodPost, "/jobs", body, pollTimeout)
	jr.submitS = d
	if code != http.StatusAccepted {
		return jr, fmt.Errorf("submit refused: HTTP %d: %s", code, bytes.TrimSpace(resp))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return jr, fmt.Errorf("decoding submit response: %w", err)
	}
	jr.id = st.ID
	s.cbMu.Lock()
	s.submitted++
	s.cbMu.Unlock()
	s.current.Store(st.ID)
	for terminal := false; !terminal; {
		if time.Since(t0) > jobTimeout {
			return jr, fmt.Errorf("job %s not terminal after %s", st.ID, jobTimeout)
		}
		target := "/jobs/" + st.ID + "/events?poll=1&since=" + strconv.FormatUint(*s.cursor, 10)
		code, resp, _ := s.do(http.MethodGet, target, nil, pollTimeout)
		if code != http.StatusOK {
			return jr, fmt.Errorf("event poll for %s: HTTP %d", st.ID, code)
		}
		var pb struct {
			Events []obs.EventRecord `json:"events"`
			Next   uint64            `json:"next"`
		}
		if err := json.Unmarshal(resp, &pb); err != nil {
			return jr, fmt.Errorf("decoding event poll: %w", err)
		}
		*s.cursor = pb.Next
		for _, ev := range pb.Events {
			if ev.Job == st.ID && serve.State(ev.Kind).Terminal() {
				terminal = true
			}
		}
	}
	jr.turnaround = time.Since(t0).Seconds()
	code, resp, d = s.do(http.MethodGet, "/jobs/"+st.ID, nil, pollTimeout)
	jr.readS = d
	if code != http.StatusOK {
		return jr, fmt.Errorf("status of %s: HTTP %d", st.ID, code)
	}
	if err := json.Unmarshal(resp, &jr.status); err != nil {
		return jr, fmt.Errorf("decoding status of %s: %w", st.ID, err)
	}
	return jr, nil
}

// watch starts the watcher client: at a fixed interval it reads the
// current job's status and the Prometheus exposition, as repstat
// -watch does. It skips the ticks that fall while watchMu is held
// elsewhere. The returned function stops it, waits for it to exit and
// returns the timed reads.
func (s *service) watch(interval time.Duration) func() []float64 {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(interval)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
			}
			s.watchMu.Lock()
			if id, _ := s.current.Load().(string); id != "" {
				_, _, d := s.do(http.MethodGet, "/jobs/"+id, nil, pollTimeout)
				reads = append(reads, d)
			}
			_, _, d := s.do(http.MethodGet, "/metrics?format=prom", nil, pollTimeout)
			reads = append(reads, d)
			s.watchMu.Unlock()
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return reads
	}
}

// checkJob applies the per-job output checks: the job ends done with
// a summary, a cycle job reports at least one cycle and a stop reason,
// and the service called OnLevel once per level of every cycle and
// OnCycleMap once per cycle.
func (s *service) checkJob(jr jobRun) {
	st := jr.status
	s.ops.check(st.State == serve.StateDone, "%s ended %s: %s", jr.id, st.State, st.Error)
	s.ops.check(st.Summary != nil, "%s has no summary", jr.id)
	cycles, maps := 1, 0
	if st.Spec.Type == serve.TypeCycle {
		ok := st.Cycle != nil && st.Cycle.Done >= 1 && st.Cycle.Stopped != ""
		s.ops.check(ok, "%s: cycle job without a completed cycle or stop reason", jr.id)
		if ok {
			cycles, maps = st.Cycle.Done, st.Cycle.Done
		}
	}
	s.cbMu.Lock()
	gotLevels, gotMaps := s.onLevel[jr.id], s.onMap[jr.id]
	s.cbMu.Unlock()
	s.ops.check(gotLevels == cycles*st.Spec.Levels, "%s: OnLevel called %d times, want %d", jr.id, gotLevels, cycles*st.Spec.Levels)
	s.ops.check(gotMaps == maps, "%s: OnCycleMap called %d times, want %d", jr.id, gotMaps, maps)
}

// checkJournal reopens a stopped service's journal: it must replay
// with every one of the wantJobs jobs terminal, and every journaled map
// artifact must read back with its journaled digest. It returns the
// time serve.OpenJournal took to replay the journal.
func checkJournal(ops *tally, path string, wantJobs int) (float64, error) {
	t0 := time.Now()
	j, err := serve.OpenJournal(path)
	replayS := time.Since(t0).Seconds()
	if !ops.check(err == nil, "journal replay: %v", err) {
		return replayS, nil
	}
	replay := j.Replay()
	if err := j.Close(); err != nil {
		return replayS, fmt.Errorf("closing replayed journal: %w", err)
	}
	ops.check(len(replay) == wantJobs, "journal replays %d jobs, want %d", len(replay), wantJobs)
	for _, rp := range replay {
		ops.check(rp.State.Terminal(), "journal replays %s as %s", rp.ID, rp.State)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return replayS, fmt.Errorf("reading journal: %w", err)
	}
	js, err := scanJournal(data)
	if err != nil {
		return replayS, err
	}
	for _, mr := range js.Maps {
		g, err := volume.ReadGridFile(mr.MapPath)
		if !ops.check(err == nil, "artifact %s: %v", mr.MapPath, err) {
			continue
		}
		ops.check(reconstruct.MapDigest(g) == mr.MapDigest, "artifact %s does not match its journaled digest", mr.MapPath)
	}
	return replayS, nil
}
