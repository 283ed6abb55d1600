package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/micrograph"
)

// TestAdaptiveMatchesExhaustiveOracleSingleLevel: within one level the
// seeded descent must land within RAngular/2 of the exhaustive window
// argmin on converged views, while spending well under half the
// distance evaluations. The starts are snapped onto the level's
// lattice so both searches see the same candidate grid: the descent
// walks the global RAngular lattice while the exhaustive window is
// anchored at its (otherwise off-lattice) entry orientation.
func TestAdaptiveMatchesExhaustiveOracleSingleLevel(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 5, micrograph.GenParams{Seed: 11})
	cfg := quickConfig(l)
	cfg.Schedule = []Level{{RAngular: 0.5, WindowHalf: 2, CenterDelta: 0.5, CenterHalf: 1}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := cfg.Schedule[0].RAngular
	inits := ds.PerturbedOrientations(0.5, 12)
	for i := range inits {
		inits[i] = eulerOfKey(keyOf(inits[i], step), step)
	}
	var adaptiveEvals, exhaustiveEvals int
	for i, v := range ds.Views {
		pv, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(pv, inits[i])
		ov, _ := r.PrepareView(v.Image, v.CTF)
		oracle := r.ExhaustiveRefine(ov, inits[i])
		if d := geom.AngularDistance(res.Orient, oracle.Orient); d > step/2 {
			t.Errorf("view %d: adaptive %.4g° from exhaustive argmin (> RAngular/2 = %.4g°)",
				i, d, step/2)
		}
		adaptiveEvals += res.TotalMatchings()
		exhaustiveEvals += oracle.TotalMatchings()
	}
	if adaptiveEvals*2 > exhaustiveEvals {
		t.Errorf("adaptive search used %d evals vs exhaustive %d — saved less than half",
			adaptiveEvals, exhaustiveEvals)
	}
}

// TestAdaptiveMatchesExhaustiveOracleSchedule: across the full
// multi-level schedule the two searches may settle in different
// near-equal fine-scale minima (their candidate grids differ once the
// level windows recenter), so the invariant is quality parity, not
// argmin identity: per view, the adaptive result must either be within
// one final-level cell of the exhaustive argmin or match it on final
// error against ground truth — and must spend under half the evals.
func TestAdaptiveMatchesExhaustiveOracleSchedule(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 5, micrograph.GenParams{Seed: 11})
	cfg := quickConfig(l)
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	finalStep := cfg.Schedule[len(cfg.Schedule)-1].RAngular
	inits := ds.PerturbedOrientations(0.5, 12)
	var adaptiveEvals, exhaustiveEvals int
	for i, v := range ds.Views {
		pv, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(pv, inits[i])
		ov, _ := r.PrepareView(v.Image, v.CTF)
		oracle := r.ExhaustiveRefine(ov, inits[i])
		gap := geom.AngularDistance(res.Orient, oracle.Orient)
		errA := geom.AngularDistance(res.Orient, v.TrueOrient)
		errE := geom.AngularDistance(oracle.Orient, v.TrueOrient)
		if gap > finalStep && errA > 1.10*errE+0.05 {
			t.Errorf("view %d: adaptive %.4g° from exhaustive argmin with final error %.4g° vs %.4g°",
				i, gap, errA, errE)
		}
		adaptiveEvals += res.TotalMatchings()
		exhaustiveEvals += oracle.TotalMatchings()
	}
	if adaptiveEvals*2 > exhaustiveEvals {
		t.Errorf("adaptive search used %d evals vs exhaustive %d — saved less than half",
			adaptiveEvals, exhaustiveEvals)
	}
}

// TestAdaptiveDeterministicAcrossWorkers: the adaptive path must be
// bit-identical between the serial entry point and batch runs at any
// worker count — the probe streams depend only on (seed, level, entry
// orientation), never on scheduling.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	l := 20
	dft, ds := testSetup(t, l, 6, micrograph.GenParams{Seed: 21})
	cfg := quickConfig(l)
	cfg.SearchSeed = 77
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2, 22)

	images, ctfs, _ := clusterInputs(ds, geom.Euler{})
	src := SliceSource(images, ctfs)
	serial := serialRefine(t, r, inits, src)
	for _, workers := range []int{1, 2, 8} {
		opt := StreamOptions{FFTWorkers: workers, RefineWorkers: workers}
		res, err := r.RefineStreamLevels(context.Background(), len(inits), src, InitialResults(inits), 0, len(cfg.Schedule), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, res) {
			t.Fatalf("workers=%d: stream results differ from serial RefineView", workers)
		}
	}
}

// TestAdaptiveSeedChangesProbes: different SearchSeeds must actually
// produce different probe streams (the descent is genuinely seeded,
// not ignoring the seed), while each seed remains self-consistent.
func TestAdaptiveSeedChangesProbes(t *testing.T) {
	rngA := newSearchRNG(1, 0, geom.Euler{Theta: 10, Phi: 20, Omega: 30})
	rngB := newSearchRNG(2, 0, geom.Euler{Theta: 10, Phi: 20, Omega: 30})
	rngC := newSearchRNG(1, 0, geom.Euler{Theta: 10, Phi: 20, Omega: 30})
	differ := false
	for i := 0; i < 16; i++ {
		a, b, c := rngA.offset(4), rngB.offset(4), rngC.offset(4)
		if a != b {
			differ = true
		}
		if a != c {
			t.Fatal("identical seeds produced different streams")
		}
		if a < -4 || a > 4 {
			t.Fatalf("offset %d outside [-4, 4]", a)
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 produced identical 16-draw streams")
	}
}

// TestAdaptiveResumeFromJournaledCheckpoint: an adaptive refinement
// interrupted mid-schedule and resumed from a JSON round-trip of its
// checkpoint (exactly what the serve journal stores) must finish
// bit-identically to the uninterrupted run. The probe streams reseed
// per level from the journaled entry orientation, so the resumed
// levels replay the identical descents.
func TestAdaptiveResumeFromJournaledCheckpoint(t *testing.T) {
	l := 20
	dft, ds := testSetup(t, l, 4, micrograph.GenParams{Seed: 31, CenterJitter: 1})
	cfg := quickConfig(l)
	cfg.SearchSeed = 5
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perturb := geom.Euler{Theta: 1.2, Phi: -0.8, Omega: 0.5}
	inits, src := datasetSource(ds, perturb)
	n := len(inits)
	ctx := context.Background()
	opt := StreamOptions{Depth: 2, FFTWorkers: 2, RefineWorkers: 2}

	want, err := r.RefineStream(ctx, inits, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint after level 0, round-trip through JSON (the journal's
	// storage format), resume the rest of the schedule.
	priors, err := r.RefineStreamLevels(ctx, n, src, InitialResults(inits), 0, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(priors)
	if err != nil {
		t.Fatal(err)
	}
	var restored []Result
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	got, err := r.RefineStreamLevels(ctx, n, src, restored, 1, len(cfg.Schedule), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("view %d: uninterrupted %+v vs resumed %+v", i, want[i], got[i])
			}
		}
		t.Fatal("journaled resume diverged from uninterrupted adaptive run")
	}
}

// TestAdaptiveVirtualWindowSlides: a start far outside the level
// window must still be recovered via virtual-window slides, and the
// slides must be recorded just like the flat scan's.
func TestAdaptiveVirtualWindowSlides(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 41})
	cfg := quickConfig(l)
	cfg.Schedule = []Level{{RAngular: 1, WindowHalf: 3, CenterDelta: 1, CenterHalf: 1}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	pv, _ := r.PrepareView(v.Image, v.CTF)
	init := v.TrueOrient.Add(geom.Euler{Theta: 5, Phi: -6, Omega: 5})
	res := r.RefineView(pv, init)
	if res.PerLevel[0].Slides == 0 {
		t.Error("expected virtual-window slides from a far-off start")
	}
	after := geom.AngularDistance(res.Orient, v.TrueOrient)
	if after > 1.5 {
		t.Errorf("far-off start not recovered: %.3g° residual", after)
	}
}

// TestSearchConfigValidate: unknown search modes and negative search
// parameters are rejected up front.
func TestSearchConfigValidate(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Search = "simulated-annealing"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown search mode accepted")
	}
	cfg = DefaultConfig(16)
	cfg.SearchProbes = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SearchProbes accepted")
	}
	cfg = DefaultConfig(16)
	cfg.ExhaustiveLevels = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative ExhaustiveLevels accepted")
	}
	for _, mode := range []SearchMode{"", SearchExhaustive, SearchAdaptive} {
		cfg = DefaultConfig(16)
		cfg.Search = mode
		if err := cfg.Validate(); err != nil {
			t.Errorf("mode %q rejected: %v", mode, err)
		}
	}
}

// TestExhaustiveLevelsForcesScan: with ExhaustiveLevels set, the early
// levels run the flat scan (window-sized eval counts) and later levels
// switch to the descent.
func TestExhaustiveLevelsForcesScan(t *testing.T) {
	l := 20
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 51})
	cfg := quickConfig(l)
	cfg.ExhaustiveLevels = 1
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	pv, _ := r.PrepareView(v.Image, v.CTF)
	res := r.RefineView(pv, v.TrueOrient.Add(geom.Euler{Theta: 1, Phi: -1, Omega: 0.5}))
	// Level 0 scanned a full 9×9×9 window: at least window-size evals.
	if res.PerLevel[0].Matchings < 729 {
		t.Errorf("level 0 ran %d matchings, expected a full window scan (≥729)", res.PerLevel[0].Matchings)
	}
	if res.PerLevel[0].DescentMoves != 0 {
		t.Errorf("level 0 recorded %d descent moves under forced scan", res.PerLevel[0].DescentMoves)
	}
	// Level 1 descended: far fewer evals than its 729-cell window.
	if res.PerLevel[1].Matchings >= 729 {
		t.Errorf("level 1 ran %d matchings, expected an adaptive descent (<729)", res.PerLevel[1].Matchings)
	}
}

// TestScoreLatticeKeysAllocFree: scoring a batch of lattice keys that
// no view has visited before samples every cut into worker scratch, so
// it allocates nothing once the scratch slices have grown. Each run
// shifts the 3×3×3 batch by three cells, so no key repeats across runs.
func TestScoreLatticeKeysAllocFree(t *testing.T) {
	l := 20
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 51})
	r, err := NewRefiner(dft, quickConfig(l))
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		t.Fatal(err)
	}
	const step = 1.0
	n := len(r.m.band)
	sc := r.m.newScratch()
	var st LevelStats
	base := keyOf(v.TrueOrient, step)
	runs := 0
	allocs := testing.AllocsPerRun(20, func() {
		runs++
		clear(sc.cache)
		sc.keys = appendLatticeNeighbors(sc.keys[:0], orientKey{base[0] + int64(3*runs), base[1], base[2]})
		r.scoreLatticeKeys(pv.vd, step, n, &st, sc)
	})
	if allocs != 0 {
		t.Errorf("scoring 27 never-seen lattice keys allocated %.1f times per batch, want 0", allocs)
	}
	if want := 27 * runs; st.Matchings != want {
		t.Errorf("scored %d candidates over %d batches, want %d", st.Matchings, runs, want)
	}
}

// TestLatticeKeyRoundTrip: the descent scores lattice keys as their
// eulerOfKey orientations and memoizes each under keyOf of that
// orientation, so keyOf must invert eulerOfKey exactly at every step
// and index a schedule can reach (angles within ±720° per axis).
func TestLatticeKeyRoundTrip(t *testing.T) {
	for _, step := range []float64{2, 1, 0.5, 0.25, 0.1, 0.05, 0.01, 0.002, 0.001} {
		lim := int64(math.Ceil(720 / step))
		for i := -lim; i <= lim; i++ {
			k := orientKey{i, -i, i / 2}
			if got := keyOf(eulerOfKey(k, step), step); got != k {
				t.Fatalf("step %g: key %v round-trips to %v", step, k, got)
			}
		}
	}
}
