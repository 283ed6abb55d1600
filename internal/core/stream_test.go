package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/volume"
)

func streamFixture(t testing.TB, m int) (*Refiner, *micrograph.Dataset) {
	t.Helper()
	const l = 16
	truth := phantom.Asymmetric(l, 5, 1)
	truth.SphericalMask(6)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: m, PixelA: 2.5, Seed: 7})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	cfg := DefaultConfig(l)
	cfg.Schedule = []Level{{RAngular: 1, WindowHalf: 2, CenterDelta: 1, CenterHalf: 1}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, ds
}

// datasetSource streams ds's views and returns the perturbed true
// orientations the tests start them from.
func datasetSource(ds *micrograph.Dataset, perturb geom.Euler) ([]geom.Euler, StreamSource) {
	views, ctfs, inits := clusterInputs(ds, perturb)
	return inits, SliceSource(views, ctfs)
}

// RefineStream is the uninterrupted fresh run the resume and
// equivalence tests compare against: every view from inits[i] through
// the whole schedule in one RefineStreamLevels call.
func (r *Refiner) RefineStream(ctx context.Context, inits []geom.Euler, src StreamSource, opt StreamOptions) ([]Result, error) {
	return r.RefineStreamLevels(ctx, len(inits), src, InitialResults(inits), 0, len(r.cfg.Schedule), opt)
}

// serialRefine is the reference the streaming driver is checked
// against: each view prepared with PrepareView and refined with
// RefineView, one after another.
func serialRefine(t testing.TB, r *Refiner, inits []geom.Euler, src StreamSource) []Result {
	t.Helper()
	want := make([]Result, len(inits))
	for i := range want {
		it, err := src(i)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.PrepareView(it.Image, it.CTF)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.RefineView(v, inits[i])
	}
	return want
}

// TestRefineStreamMatchesBatch: the streaming pipeline over the full
// schedule must produce results bit-identical to a serial RefineView
// loop over the same batch of views, for several pipeline shapes.
func TestRefineStreamMatchesBatch(t *testing.T) {
	r, ds := streamFixture(t, 6)
	perturb := geom.Euler{Theta: 1.2, Phi: -0.8, Omega: 0.5}
	inits, src := datasetSource(ds, perturb)
	want := serialRefine(t, r, inits, src)

	for _, opt := range []StreamOptions{
		{},
		{Depth: 1, FFTWorkers: 1, RefineWorkers: 1},
		{Depth: 2, FFTWorkers: 3, RefineWorkers: 2},
		{FFTWorkers: 8, RefineWorkers: 8},
	} {
		got, err := r.RefineStream(context.Background(), inits, src, opt)
		if err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opt %+v: stream results differ from serial RefineView:\n  stream %+v\n  serial %+v", opt, got, want)
		}
	}
}

// TestRefineStreamPropagatesErrors: a failing source cancels the
// pipeline and surfaces the error; a size-mismatched view fails in the
// FFT stage the same way.
func TestRefineStreamPropagatesErrors(t *testing.T) {
	r, ds := streamFixture(t, 4)
	boom := errors.New("disk on fire")
	inits, good := datasetSource(ds, geom.Euler{})
	n := len(inits)
	_, err := r.RefineStreamLevels(context.Background(), n, func(i int) (StreamItem, error) {
		if i == 2 {
			return StreamItem{}, boom
		}
		return good(i)
	}, make([]Result, n), 0, 1, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("source error not propagated: %v", err)
	}

	_, err = r.RefineStreamLevels(context.Background(), 1, func(int) (StreamItem, error) {
		return StreamItem{Image: volume.NewImage(8)}, nil
	}, make([]Result, 1), 0, 1, StreamOptions{})
	if err == nil {
		t.Fatal("size mismatch not surfaced")
	}
}

// TestRefineStreamEmpty: zero views is a no-op, not a deadlock.
func TestRefineStreamEmpty(t *testing.T) {
	r, _ := streamFixture(t, 1)
	res, err := r.RefineStreamLevels(context.Background(), 0, func(int) (StreamItem, error) {
		panic("source must not be called")
	}, nil, 0, 1, StreamOptions{})
	if err != nil || res != nil {
		t.Fatalf("empty stream: %v %v", res, err)
	}
}

// TestRefineStreamCancelNoLeak: cancelling the context mid-stream
// aborts between views, surfaces ctx.Err(), and leaks no stage
// goroutine — every loader/FFT/refine worker must have exited by the
// time RefineStreamLevels returns.
func TestRefineStreamCancelNoLeak(t *testing.T) {
	r, ds := streamFixture(t, 8)
	inits, src := datasetSource(ds, geom.Euler{Theta: 0.5})
	n := len(inits)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancelling := func(i int) (StreamItem, error) {
		if i == 3 {
			cancel()
		}
		return src(i)
	}
	priors := make([]Result, n)
	res, err := r.RefineStreamLevels(ctx, n, cancelling, priors, 0, 1, StreamOptions{Depth: 1, FFTWorkers: 2, RefineWorkers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res %v)", err, res)
	}
	if res != nil {
		t.Fatalf("cancelled stream returned results: %v", res)
	}
	// RefineStreamLevels waits for its own goroutines before returning, so
	// any excess here would be a pipeline leak. Allow a short settle
	// for unrelated runtime goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// TestRefineBatchCancel: a context cancelled before the call makes
// the driver return its error without pulling a single view.
func TestRefineBatchCancel(t *testing.T) {
	r, _ := streamFixture(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RefineStreamLevels(ctx, 3, func(int) (StreamItem, error) {
		panic("source must not be called")
	}, make([]Result, 3), 0, 1, StreamOptions{RefineWorkers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRefineStreamLevelsResume: running the schedule one level at a
// time through RefineStreamLevels — re-preparing each view from the
// raw image and replaying the recorded shift increments — must produce
// results bit-identical to one uninterrupted RefineStream over the
// full schedule. This is the property the serving layer's checkpoint
// resume rests on.
func TestRefineStreamLevelsResume(t *testing.T) {
	const l = 16
	truth := phantom.Asymmetric(l, 5, 1)
	truth.SphericalMask(6)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 5, PixelA: 2.5, CenterJitter: 1.0, Seed: 9})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	cfg := DefaultConfig(l)
	cfg.Schedule = []Level{
		{RAngular: 1, WindowHalf: 2, CenterDelta: 1, CenterHalf: 1, RMapFrac: 0.5},
		{RAngular: 0.5, WindowHalf: 1, CenterDelta: 0.5, CenterHalf: 1},
		{RAngular: 0.1, WindowHalf: 0.2, CenterDelta: 0.1, CenterHalf: 1},
	}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perturb := geom.Euler{Theta: 1.1, Phi: -0.7, Omega: 0.4}
	inits, src := datasetSource(ds, perturb)
	n := len(inits)
	ctx := context.Background()
	opt := StreamOptions{Depth: 2, FFTWorkers: 2, RefineWorkers: 2}

	want, err := r.RefineStream(ctx, inits, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Level at a time, as the job service runs it between checkpoints.
	priors := InitialResults(inits)
	for k := 0; k < len(cfg.Schedule); k++ {
		priors, err = r.RefineStreamLevels(ctx, n, src, priors, k, k+1, opt)
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
	}
	if !reflect.DeepEqual(want, priors) {
		for i := range want {
			if !reflect.DeepEqual(want[i], priors[i]) {
				t.Errorf("view %d: full %+v vs level-wise %+v", i, want[i], priors[i])
			}
		}
		t.Fatal("level-wise resume diverged from uninterrupted run")
	}
	// The recorded shifts must account exactly for the final centre.
	for i, res := range want {
		var dx, dy float64
		for _, st := range res.PerLevel {
			for _, s := range st.Shifts {
				dx += s[0]
				dy += s[1]
			}
		}
		if dx != res.Center[0] || dy != res.Center[1] {
			t.Errorf("view %d: shifts sum to (%g, %g), Center is (%g, %g)", i, dx, dy, res.Center[0], res.Center[1])
		}
	}
}

// TestRefineStreamLevelsValidation: bad priors length and level ranges
// are rejected up front.
func TestRefineStreamLevelsValidation(t *testing.T) {
	r, ds := streamFixture(t, 2)
	inits, src := datasetSource(ds, geom.Euler{})
	n := len(inits)
	ctx := context.Background()
	if _, err := r.RefineStreamLevels(ctx, n, src, make([]Result, n+1), 0, 1, StreamOptions{}); err == nil {
		t.Fatal("priors length mismatch not rejected")
	}
	if _, err := r.RefineStreamLevels(ctx, n, src, make([]Result, n), 0, 99, StreamOptions{}); err == nil {
		t.Fatal("out-of-range level not rejected")
	}
	if _, err := r.RefineStreamLevels(ctx, n, src, make([]Result, n), -1, 1, StreamOptions{}); err == nil {
		t.Fatal("negative start level not rejected")
	}
}
