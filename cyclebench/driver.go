package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/cycle"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/serve"
	"repro/internal/volume"
	"repro/internal/workload"
)

// datasetSpec resolves a normalized job spec's dataset the way the
// service does: the named spec, shrunk by Scale, capped at Views.
func datasetSpec(spec serve.JobSpec) (workload.DatasetSpec, error) {
	ws, err := workload.SpecByName(spec.Dataset)
	if err != nil {
		return ws, err
	}
	if spec.Scale > 1 {
		ws = ws.Scaled(spec.Scale)
	}
	if spec.Views > 0 && spec.Views < ws.NumViews {
		ws.NumViews = spec.Views
	}
	return ws, nil
}

// buildDataset is the workload layer's job input: the synthesized
// dataset and the perturbed initial orientations.
func buildDataset(spec serve.JobSpec) (*micrograph.Dataset, []geom.Euler, error) {
	ws, err := datasetSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	ds := ws.Build()
	return ds, ds.PerturbedOrientations(spec.InitError, spec.InitSeed), nil
}

// tracedRun is one cycle job driven directly through cycle.Run with
// every layer boundary recorded as a span.
type tracedRun struct {
	id     string
	out    *cycle.Outcome
	cds    cycle.Dataset
	cfg    cycle.Config
	values map[string]float64
	// journal is the traced job's journal size by record kind.
	journal journalScan
}

// runTraced drives the cycle job described by the service-normalized
// spec through cycle.Run, making the journal and artifact calls the
// service makes from the same hooks, into its own journal and artifact
// directory under dir. Spans go to rec under job id; per-job layer
// values (times, counts, bytes) are returned in tracedRun.values.
func runTraced(rec *recorder, dir, id string, spec serve.JobSpec, sum *serve.Summary) (*tracedRun, error) {
	tr := &tracedRun{id: id, values: map[string]float64{}}
	v := tr.values
	before := obs.Values()
	root := rec.begin("job", id)
	defer rec.end(root)

	var (
		ds    *micrograph.Dataset
		inits []geom.Euler
	)
	err := rec.timed("workload.build", id, func() (err error) {
		ds, inits, err = buildDataset(spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := len(ds.Views)
	tr.cds = cycle.Dataset{Views: ds.Images(), Inits: inits}
	if ds.HasCTF {
		tr.cds.CTFs = make([]ctf.Params, n)
		for i, vw := range ds.Views {
			tr.cds.CTFs[i] = vw.CTF
		}
	}
	tr.cfg = cycle.Config{
		L:             ds.L,
		PixelA:        ds.PixelA,
		Levels:        spec.Levels,
		Pad:           spec.Pad,
		MaxCycles:     spec.MaxCycles,
		PlateauEps:    spec.PlateauEps,
		PlateauWindow: spec.PlateauWindow,
		Search:        core.SearchMode(spec.Search),
		SearchSeed:    spec.SearchSeed,
		CTF:           ds.HasCTF,
	}
	truth := ds.TrueOrientations()

	jpath := filepath.Join(dir, id+".jsonl")
	var j *serve.Journal
	journal := func(name string, fn func() error) error {
		return rec.timed("serve.journal_"+name, id, fn)
	}
	if err := journal("open", func() (err error) { j, err = serve.OpenJournal(jpath); return err }); err != nil {
		return nil, err
	}
	defer j.Close() // closed explicitly on success below; this covers error paths
	if err := journal("submit", func() error { return j.Submit(id, spec) }); err != nil {
		return nil, err
	}

	var (
		gap        = -1 // the open span between two hooks
		cycleSpan  int
		level      int
		allocStart uint64
		allocs     []float64
		ms         runtime.MemStats
	)
	closeGap := func() {
		if gap >= 0 {
			rec.end(gap)
			gap = -1
		}
	}
	h := cycle.Hooks{
		OnCycleStart: func(c int) error {
			cycleSpan = rec.begin("cycle.cycle", id)
			if err := journal("cycle_start", func() error { return j.CycleStart(id, c) }); err != nil {
				return err
			}
			// Cycle 0's gap before its first level also reconstructs
			// the initial reference from the rough orientations.
			if c == 0 {
				gap = rec.begin("cycle.initial_ref", id)
			} else {
				gap = rec.begin("fourier.ref_prep", id)
			}
			return nil
		},
		OnLevelStart: func(c, global int) error {
			closeGap()
			runtime.ReadMemStats(&ms)
			allocStart = ms.TotalAlloc
			level = rec.begin(fmt.Sprintf("core.level%d", global%tr.cfg.Levels), id)
			return nil
		},
		OnLevel: func(c, global int, results []core.Result) error {
			rec.end(level)
			runtime.ReadMemStats(&ms)
			allocs = append(allocs, float64(ms.TotalAlloc-allocStart)/float64(n))
			if err := journal("level", func() error { return j.Level(id, global, results) }); err != nil {
				return err
			}
			if global%tr.cfg.Levels == tr.cfg.Levels-1 {
				if c == 0 {
					v["cycle.ang_err_cycle0_deg"] = meanAngErr(results, truth)
				}
				gap = rec.begin("reconstruct.full", id)
			}
			return nil
		},
		OnMap: func(c int, g *volume.Grid) error {
			closeGap()
			path := filepath.Join(dir, fmt.Sprintf("%s.cycle-%d.map", id, c))
			if err := rec.timed("volume.write_grid", id, func() error { return volume.WriteGridFile(path, g) }); err != nil {
				return err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			v["serve.artifact_bytes"] += float64(fi.Size())
			dspan := rec.begin("reconstruct.map_digest", id)
			digest := reconstruct.MapDigest(g)
			rec.end(dspan)
			if err := journal("cycle_map", func() error { return j.CycleMap(id, c, path, digest) }); err != nil {
				return err
			}
			gap = rec.begin("reconstruct.halves_fsc", id)
			return nil
		},
		OnCycleEnd: func(r cycle.CycleFSC, curve *fsc.Curve, stopped string) error {
			closeGap()
			err := journal("cycle_end", func() error { return j.CycleEnd(id, r, stopped) })
			rec.end(cycleSpan)
			return err
		},
	}
	run := rec.begin("cycle.run", id)
	tr.out, err = cycle.Run(context.Background(), tr.cds, tr.cfg, cycle.State{}, h)
	rec.end(run)
	if err != nil {
		return nil, err
	}
	if err := journal("terminal", func() error { return j.Terminal(id, serve.StateDone, "", sum) }); err != nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, fmt.Errorf("closing traced journal: %w", err)
	}
	rec.end(root)
	after := obs.Values()

	data, err := os.ReadFile(jpath)
	if err != nil {
		return nil, fmt.Errorf("reading traced journal: %w", err)
	}
	rb, err := scanJournal(data)
	if err != nil {
		return nil, err
	}
	tr.journal = rb
	var total int64
	for _, b := range rb.ByKind {
		total += b
	}
	v["serve.level_record_bytes_total"] = float64(rb.ByKind["level"])
	v["serve.level_record_bytes_max"] = float64(rb.LevelMax)
	v["serve.journal_bytes_per_job"] = float64(total)

	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	hits, misses := delta("fourier.cut_cache.hits"), delta("fourier.cut_cache.misses")
	if hits+misses > 0 {
		v["fourier.cut_cache_hit_rate"] = hits / (hits + misses)
	}
	v["fourier.cut_coeffs"] = delta("fourier.sampler.cut_coeffs")
	v["reconstruct.views_inserted"] = delta("reconstruct.views_inserted")
	v["core.alloc_bytes_per_view"] = mean(allocs)

	var evals, levelNS float64
	for _, r := range tr.out.Results {
		for g, st := range r.PerLevel {
			name := fmt.Sprintf("core.level%d_distance_evals", g%tr.cfg.Levels)
			v[name] += float64(st.Matchings)
			v["core.center_evals"] += float64(st.CenterEvals)
			evals += float64(st.Matchings + st.CenterEvals)
		}
	}
	spans := rec.jobSpans(id)
	for k := 0; k < 3; k++ {
		name := fmt.Sprintf("core.level%d", k)
		v[name+"_s"] = sumByName(spans, name)
		levelNS += v[name+"_s"] * 1e9
	}
	if evals > 0 {
		v["core.ns_per_distance_eval"] = levelNS / evals
	}
	v["workload.build_s"] = sumByName(spans, "workload.build")
	v["fourier.ref_prep_s"] = sumByName(spans, "fourier.ref_prep")
	v["cycle.initial_ref_s"] = sumByName(spans, "cycle.initial_ref")
	v["reconstruct.full_s"] = sumByName(spans, "reconstruct.full")
	v["reconstruct.halves_fsc_s"] = sumByName(spans, "reconstruct.halves_fsc")
	var journalS float64
	var cycles []float64
	for _, s := range spans {
		switch {
		case s.layer() == "serve" && s.Name != "serve.journal_open":
			journalS += s.dur()
		case s.Name == "cycle.cycle":
			cycles = append(cycles, s.dur())
		case s.Name == "job":
			v["trace.job_s_traced"] = s.dur()
		}
	}
	v["serve.journal_append_s"] = journalS
	v["serve.artifact_write_s"] = sumByName(spans, "volume.write_grid") + sumByName(spans, "reconstruct.map_digest")
	v["cycle.cycles"] = float64(len(tr.out.History))
	if len(cycles) > 0 {
		v["cycle.first_cycle_s"] = cycles[0]
	}
	if len(cycles) > 1 {
		v["cycle.later_cycle_s_mean"] = mean(cycles[1:])
	}
	best := math.Inf(1)
	for _, r := range tr.out.History {
		best = math.Min(best, r.ResolutionA)
	}
	v["fsc.res05_best_A"] = best
	return tr, nil
}

// jobSpans returns the spans recorded for one job id.
func (r *recorder) jobSpans(id string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Job == id {
			out = append(out, s)
		}
	}
	return out
}

// meanAngErr is the mean angular distance of the results from the
// ground-truth orientations, in degrees.
func meanAngErr(results []core.Result, truth []geom.Euler) float64 {
	var sum float64
	for i, r := range results {
		sum += geom.AngularDistance(r.Orient, truth[i])
	}
	return sum / float64(len(results))
}

// probeAfter makes the direct timed calls that run after a traced job:
// the odd/even split and the FSC on the final results, and the view
// preparation plus shift replay every level boundary performed. The
// probe's FSC must reproduce the last cycle's record bit for bit.
func probeAfter(rec *recorder, ops *tally, id string, tr *tracedRun) error {
	v := tr.values
	root := rec.begin("probe", id)
	defer rec.end(root)
	orients := make([]geom.Euler, len(tr.out.Results))
	centers := make([][2]float64, len(tr.out.Results))
	for i, r := range tr.out.Results {
		orients[i], centers[i] = r.Orient, r.Center
	}
	opt := reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: tr.cfg.CTF}}
	var odd, even *volume.Grid
	if err := rec.timed("reconstruct.halves", id, func() (err error) {
		odd, even, err = reconstruct.SplitHalvesParallel(tr.cds.Views, orients, centers, tr.cds.CTFs, opt)
		return err
	}); err != nil {
		return err
	}
	var curve *fsc.Curve
	if err := rec.timed("fsc.compute", id, func() (err error) {
		curve, err = fsc.ComputeParallel(odd, even, tr.cfg.PixelA, 0)
		return err
	}); err != nil {
		return err
	}
	last := tr.out.History[len(tr.out.History)-1]
	ops.check(math.Float64bits(curve.ResolutionAt(0.5)) == math.Float64bits(last.ResolutionA),
		"%s: FSC of the final results %g Å differs from the last cycle's %g Å", id, curve.ResolutionAt(0.5), last.ResolutionA)

	r, err := newRefiner(tr.out.Map, tr.cfg)
	if err != nil {
		return err
	}
	var replayed int
	if err := rec.timed("core.prep", id, func() error {
		levels := len(tr.out.Results[0].PerLevel)
		for g := 0; g < levels; g++ {
			for i, res := range tr.out.Results {
				var p ctf.Params
				if tr.cds.CTFs != nil {
					p = tr.cds.CTFs[i]
				}
				vw, err := r.PrepareView(tr.cds.Views[i], p)
				if err != nil {
					return err
				}
				for _, st := range res.PerLevel[:g] {
					for _, s := range st.Shifts {
						r.ApplyShift(vw, s[0], s[1])
						replayed++
					}
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	spans := rec.jobSpans(id)
	v["reconstruct.halves_s"] = sumByName(spans, "reconstruct.halves")
	v["fsc.compute_s"] = sumByName(spans, "fsc.compute")
	v["core.prep_s"] = sumByName(spans, "core.prep")
	v["core.replayed_shifts"] = float64(replayed)
	return nil
}

// newRefiner builds a refiner over a map with the cycle driver's
// refinement settings, for timing view preparation, which does not
// depend on the map's values (so the driver's reference mask is left
// out).
func newRefiner(ref *volume.Grid, cfg cycle.Config) (*core.Refiner, error) {
	dft := fourier.NewVolumeDFTPadded(ref, cfg.Pad)
	ccfg := core.DefaultConfig(cfg.L)
	ccfg.Schedule = core.DefaultSchedule()[:cfg.Levels]
	ccfg.Search = cfg.Search
	ccfg.SearchSeed = cfg.SearchSeed
	if cfg.CTF {
		ccfg.CorrectCTF = true
		ccfg.CTFMode = ctf.PhaseFlip
		ccfg.CTFWeightCuts = true
	}
	return core.NewRefiner(dft, ccfg)
}

// compareWithService checks that the traced run reproduced the service
// run of the same job bit for bit: every view's orientation and centre
// (Manager.Results), the final map digest (the service's journaled
// digest and its artifact read back), and the FSC history.
func compareWithService(ops *tally, svc *service, jr jobRun, tr *tracedRun) {
	id := jr.id
	res, err := svc.m.Results(id)
	if !ops.check(err == nil && len(res) == len(tr.out.Results), "%s: service results: %v", id, err) {
		return
	}
	same := true
	for i, a := range res {
		b := tr.out.Results[i]
		for _, p := range [][2]float64{
			{a.Orient.Theta, b.Orient.Theta}, {a.Orient.Phi, b.Orient.Phi}, {a.Orient.Omega, b.Orient.Omega},
			{a.Center[0], b.Center[0]}, {a.Center[1], b.Center[1]},
		} {
			same = same && math.Float64bits(p[0]) == math.Float64bits(p[1])
		}
	}
	ops.check(same, "%s: traced orientations or centres differ from the service run", id)

	cs := jr.status.Cycle
	if !ops.check(cs != nil, "%s: no cycle status", id) {
		return
	}
	digest := reconstruct.MapDigest(tr.out.Map)
	ops.check(digest == cs.MapDigest, "%s: traced map digest %.12s, service journaled %.12s", id, digest, cs.MapDigest)
	g, err := volume.ReadGridFile(cs.MapPath)
	if ops.check(err == nil, "%s: service artifact: %v", id, err) {
		ops.check(reconstruct.MapDigest(g) == digest, "%s: service artifact differs from the traced map", id)
	}
	sameHist := len(cs.History) == len(tr.out.History)
	for i := 0; sameHist && i < len(cs.History); i++ {
		a, b := cs.History[i], tr.out.History[i]
		sameHist = a.Cycle == b.Cycle && a.Improved == b.Improved && a.Plateau == b.Plateau &&
			math.Float64bits(a.ResolutionA) == math.Float64bits(b.ResolutionA) &&
			math.Float64bits(a.MeanCC) == math.Float64bits(b.MeanCC)
	}
	ops.check(sameHist, "%s: traced FSC history differs from the service run", id)
}
