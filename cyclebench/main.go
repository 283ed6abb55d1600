// Command cyclebench is the repository's end-to-end benchmark: it
// drives the refinement job service (internal/serve) in process with a
// closed loop of jobs and reports what a cycle job costs — time to
// solution, ground-truth accuracy, service turnaround, set-up time and
// memory — and, in a separate traced run, where that time goes layer by
// layer.
//
//	cyclebench --workload cycle-deep --seed 1 --seconds 35 --trace 0
//
// The service is the one cmd/refined starts by default (obs enabled, a
// 4096-entry event ring, an fsynced on-disk journal), reached through
// its http.Handler's ServeHTTP so no socket is bound. Every run checks
// its outputs (jobs done with a summary, artifacts matching their
// journaled digests, the journal replaying with every job terminal
// and, when traced, the traced driver run bit-identical to the service
// run); a failed check makes the command exit non-zero.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a
// readable report. All files go under .bench_build/ in the working
// directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// eventsCap is cmd/refined's default -events-cap.
	eventsCap = 4096
	// watchInterval is the watcher's read period, repstat -watch's
	// default -interval.
	watchInterval = time.Second
	// setups is how many times a run sets the service up; setup_s is
	// their median.
	setups = 5
	// outDir holds everything a run writes, relative to the working
	// directory.
	outDir = ".bench_build"
	// rssJobs is the job count at which peak_rss_mb is read when the
	// timed phase sends that many. The manager keeps every finished
	// job, so memory grows with jobs served; this reads it early in a
	// long run of small jobs and at the end of a short run of big ones.
	rssJobs = 300
	// capFactor times --seconds is the longest a timed phase runs: a
	// program this much slower than the nominal job times stops early,
	// so the run still ends in time.
	capFactor = 3
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
	}
	os.Exit(code)
}

// options are the command-line settings of one run.
type options struct {
	workload workloadDef
	seed     int64
	seconds  float64
	trace    bool
}

func parseOptions(args []string) (options, error) {
	var opt options
	fs := flag.NewFlagSet("cyclebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cycle-deep, cycle-wide or service-mix")
	seed := fs.Int64("seed", 1, "workload seed; feeds every job's init_seed and search_seed")
	seconds := fs.Float64("seconds", 35, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics, 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return opt, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return opt, fmt.Errorf("non-positive --seconds %g", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) (int, error) {
	opt, err := parseOptions(args)
	if err != nil {
		return 2, err
	}
	rep := &report{}
	res, err := runWorkload(opt, rep)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, fmt.Errorf("encoding result: %w", err)
	}
	rep.lines = append(rep.lines, string(line))
	if _, err := io.WriteString(stdout, strings.Join(rep.lines, "\n")+"\n"); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// report collects the readable lines printed before the result.
type report struct{ lines []string }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runWorkload sets the service up, runs the timed closed loop, checks
// the outputs and computes the metrics of one run.
func runWorkload(opt options, rep *report) (*result, error) {
	w := opt.workload
	obs.SetEnabled(true)
	obs.StartTrace()
	obs.StartEvents(eventsCap)
	defer obs.StopEvents()
	defer obs.EndTrace()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rep.printf("# cyclebench workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s",
		w.name, opt.seed, opt.seconds, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	ops := &tally{}
	var cursor uint64
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}

	// Set-up: start the service on a fresh journal and run one warm-up
	// job at the workload's box size, several times; the last service
	// stays up for the timed phase.
	var setupS []float64
	var svc *service
	for k := 0; k < setups; k++ {
		dir := filepath.Join(runDir, fmt.Sprintf("service-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startService(dir, ops, &cursor)
		if err != nil {
			return nil, err
		}
		jr, err := s.runJob(w.warmup)
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %v (stopping service: %v)", err, s.stop())
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		s.checkJob(jr)
		if k == setups-1 {
			svc = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}

	// Timed phase: one submitter sends the workload's fixed number of
	// jobs, each after the previous one is terminal.
	var stopWatch func() []float64
	if w.watch {
		stopWatch = svc.watch(watchInterval)
	}
	var (
		runs   []jobRun
		traced []*tracedRun
		buildS []float64
	)
	tracedDir := filepath.Join(runDir, "traced")
	if err := os.MkdirAll(tracedDir, 0o755); err != nil {
		return nil, err
	}
	// traceJob times a finished job's layers: a refine job's dataset
	// build, or a cycle job driven again through cycle.Run, compared
	// with the service run and followed by the probes.
	traceJob := func(jr jobRun) error {
		if jr.status.Spec.Type != serve.TypeCycle {
			id := rec.begin("workload.build", jr.id)
			_, _, err := buildDataset(jr.status.Spec)
			rec.end(id)
			buildS = append(buildS, rec.spans[id].dur())
			return err
		}
		tr, err := runTraced(rec, tracedDir, jr.id, jr.status.Spec, jr.status.Summary)
		if err != nil {
			return fmt.Errorf("traced run of %s: %w", jr.id, err)
		}
		compareWithService(ops, svc, jr, tr)
		if err := probeAfter(rec, ops, jr.id, tr); err != nil {
			return fmt.Errorf("probes after %s: %w", jr.id, err)
		}
		tr.values["trace.job_s_untraced"] = jr.turnaround
		tr.values["trace.overhead_ratio"] = tr.values["trace.job_s_traced"] / jr.turnaround
		buildS = append(buildS, tr.values["workload.build_s"])
		traced = append(traced, tr)
		return nil
	}
	var phaseS, peakMB float64
	// A traced run drives each cycle job twice, in the service and
	// again through cycle.Run, so it sends half the jobs to take about
	// as long as an untraced run.
	jobs := w.jobCount(opt.seconds)
	if opt.trace {
		jobs = w.jobCount(opt.seconds / 2)
	}
	t0 := time.Now()
	loopErr := func() error {
		for i := 0; i < jobs; i++ {
			if time.Since(t0).Seconds() >= capFactor*opt.seconds {
				rep.printf("# timed phase stopped at %g s after %d of %d jobs", capFactor*opt.seconds, i, jobs)
				return nil
			}
			jr, err := svc.runJob(w.job(opt.seed, i))
			if err != nil {
				return err
			}
			svc.checkJob(jr)
			runs = append(runs, jr)
			if len(runs) == rssJobs {
				if peakMB, err = peakRSSMB(); err != nil {
					return err
				}
			}
			if !opt.trace || jr.status.State != serve.StateDone {
				continue
			}
			svc.watchMu.Lock()
			err = traceJob(jr)
			svc.watchMu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}()
	phaseS = time.Since(t0).Seconds()
	// Read before the output checks, which replay the whole journal.
	var endMB float64
	if loopErr == nil {
		endMB, loopErr = peakRSSMB()
	}
	if peakMB == 0 {
		peakMB = endMB
	}
	var reads []float64
	if stopWatch != nil {
		reads = stopWatch()
	}
	if err := svc.stop(); err != nil {
		return nil, errors.Join(loopErr, err)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	replayS, err := checkJournal(ops, svc.journal.Path(), len(runs)+1)
	if err != nil {
		return nil, err
	}
	// The traced runs' journals and artifacts pass the same checks.
	for _, tr := range traced {
		if _, err := checkJournal(ops, filepath.Join(tracedDir, tr.id+".jsonl"), 1); err != nil {
			return nil, err
		}
	}

	metrics := map[string]metricValue{}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.Name == name {
				metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("cyclebench: unlisted metric " + name)
	}
	if opt.trace {
		layerMetrics(rep, rec, runs, traced, buildS, reads, replayS, func(n string, v float64) { set(perLayer, n, v) })
		if err := writeSpans(filepath.Join(outDir, "spans-"+w.name+".json"), rec.spans, selfByLayer(rec.spans)); err != nil {
			return nil, err
		}
	} else {
		rep.printf("# peak RSS %.1f MB after min(%d, all) jobs, %.1f MB at the end of the timed phase", peakMB, rssJobs, endMB)
		endToEndMetrics(rep, runs, setupS, phaseS, peakMB, func(n string, v float64) { set(endToEnd, n, v) })
	}

	res := &result{Attempted: ops.attempted.Load(), Failed: ops.failed.Load(), Metrics: metrics}
	rep.printf("# failed_frac %d/%d = %.4g", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	for _, n := range ops.notes {
		rep.printf("# check failed: %s", n)
	}
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %g", n, m.Value)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics computes the untraced run's metrics from the timed
// phase's jobs; phaseS is the phase's wall time.
func endToEndMetrics(rep *report, runs []jobRun, setupS []float64, phaseS, peakMB float64, set func(string, float64)) {
	var all, cycleJobs, perCycle, meanErr, maxErr []float64
	var per []string
	for _, jr := range runs {
		all = append(all, jr.turnaround)
		if s := jr.status.Summary; s != nil {
			meanErr = append(meanErr, s.MeanAngularError)
			maxErr = append(maxErr, s.MaxAngularError)
		}
		cycles := 0
		if c := jr.status.Cycle; c != nil && c.Done > 0 {
			cycles = c.Done
			cycleJobs = append(cycleJobs, jr.turnaround)
			perCycle = append(perCycle, jr.turnaround/float64(c.Done))
		}
		per = append(per, fmt.Sprintf("%.3f/%d", jr.turnaround, cycles))
	}
	if len(per) > 30 {
		per = append(per[:30], fmt.Sprintf("... (%d more)", len(per)-30))
	}
	rep.printf("# jobs (turnaround s/cycles): %s", strings.Join(per, " "))
	p50 := median(all)
	p90, q := tail(all, 0.90)
	rep.printf("# setup_s samples %s (first includes cold process caches)", fmtList(setupS))
	rep.printf("# %d jobs, %d cycle jobs; turnaround_s_p90 reports the p%.4g of %d samples", len(runs), len(cycleJobs), q*100, len(all))
	set("setup_s", median(setupS))
	set("job_s", mean(cycleJobs))
	set("s_per_cycle", mean(perCycle))
	set("turnaround_s_p50", p50)
	set("turnaround_s_p90", p90)
	set("jobs_per_s", float64(len(runs))/phaseS)
	set("ang_err_mean_deg", mean(meanErr))
	set("ang_err_max_deg", mean(maxErr))
	set("peak_rss_mb", peakMB)
}

// layerMetrics computes the traced run's per-layer metrics: the mean
// over traced cycle jobs of each layer value, the service-side request
// timings, and the self-time table.
func layerMetrics(rep *report, rec *recorder, runs []jobRun, traced []*tracedRun, buildS, reads []float64, replayS float64, set func(string, float64)) {
	// Values each traced job carries; the ones measured elsewhere are
	// set below.
	for _, d := range perLayer {
		if !strings.HasPrefix(d.Name, "self.") {
			set(d.Name, mean(valuesOf(traced, d.Name)))
		}
	}
	set("workload.build_s", mean(buildS))

	var submits []float64
	for _, jr := range runs {
		submits = append(submits, jr.submitS)
		reads = append(reads, jr.readS)
	}
	set("serve.submit_s_p50", median(submits))
	set("serve.read_s_p50", median(reads))
	rp90, q := tail(reads, 0.90)
	set("serve.read_s_p90", rp90)
	set("serve.journal_replay_s", replayS)

	self := selfByLayer(rec.spans)
	n := float64(len(traced))
	for _, l := range layers {
		set("self."+l+"_s", self[l]/n)
	}
	set("self.unaccounted_s", self["unaccounted"]/n)

	rep.printf("# %d jobs, %d traced cycle jobs; serve.read_s_p90 reports the p%.4g of %d reads", len(runs), len(traced), q*100, len(reads))
	rep.printf("# self time per traced job (s), layer: self (share of traced job_s)")
	jobS := mean(valuesOf(traced, "trace.job_s_traced"))
	for _, l := range append(append([]string(nil), layers...), "unaccounted") {
		rep.printf("#   %-12s %.6f (%.1f%%)", l, self[l]/n, 100*self[l]/n/jobS)
	}
	kinds := map[string]float64{}
	for _, tr := range traced {
		for k, b := range tr.journal.ByKind {
			kinds[k] += float64(b) / n
		}
	}
	var parts []string
	for _, k := range []string{"submit", "cycle_start", "level", "cycle_map", "cycle_end", "terminal"} {
		parts = append(parts, fmt.Sprintf("%s=%.0f", k, kinds[k]))
	}
	rep.printf("# journal bytes per traced job by record kind (artifact paths excluded): %s", strings.Join(parts, " "))
	rep.printf("# tracing overhead: traced job_s %.4f s / untraced job_s %.4f s",
		jobS, mean(valuesOf(traced, "trace.job_s_untraced")))
}

func valuesOf(traced []*tracedRun, name string) []float64 {
	var xs []float64
	for _, tr := range traced {
		xs = append(xs, tr.values[name])
	}
	return xs
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing peak RSS %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
