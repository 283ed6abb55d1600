package reconstruct

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"time"

	"repro/internal/ctf"
	"repro/internal/fft"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/volume"
)

// DefaultShards is the accumulator shard count used when
// ParallelOptions.Shards is not set. It is a fixed constant — not
// GOMAXPROCS — because the shard count determines the floating-point
// summation grouping: views are striped over shards by insertion
// index, each shard keeps its own running num/den sums, and Finish
// merges the shards in index order. With the count pinned, the output
// is bit-identical on every machine and at every worker count; only
// changing Shards (or the view order) can move the last bits.
const DefaultShards = 8

// ParallelOptions extends Options with the execution shape of the
// sharded kernel.
type ParallelOptions struct {
	Options
	// Workers bounds the insertion and merge parallelism; ≤0 selects
	// GOMAXPROCS. Workers never affects the result, only wall time.
	Workers int
	// Shards is the number of accumulator shards; ≤0 selects
	// DefaultShards. Each shard owns full num/den volumes (24·l³ bytes)
	// plus the per-view scratch, so memory grows linearly with Shards
	// while attainable speedup is capped at min(Shards, Workers).
	// Unlike Workers, changing Shards regroups the accumulation sums
	// and perturbs the output at the rounding level (~1e-16 relative).
	Shards int
}

// ViewTask is one view queued for insertion: the image, its refined
// orientation, the centre correction applied as a phase ramp, and the
// CTF parameters (consulted only under Options.WienerCTF).
type ViewTask struct {
	Image  *volume.Image
	Orient geom.Euler
	Center [2]float64
	CTF    ctf.Params
}

// Sharded is the parallel reconstruction kernel: views are striped
// over a fixed set of accumulator shards, each shard accumulates its
// views in arrival order through the fused insert path, and Finish
// merges the shards in index order. Results are bit-identical across
// GOMAXPROCS and across the batch/streaming entry points, and agree
// with the serial Reconstructor oracle to ≤1e-12.
//
// The batch entry points (Insert, InsertViews, Finish) may be called
// from one goroutine at a time; InsertStream returns a handle whose
// sends run concurrently with the shard workers.
type Sharded struct {
	l       int
	opt     Options
	workers int
	acc     []*shardAccum
	wrapTab []int32 // wrapTab[i+l] = wrap(i, l) for i ∈ [−l, l+1]
	n       int     // views dispatched (stripe counter)
}

// shardAccum is one accumulator shard plus the scratch the fused
// insert path reuses across views: the real-input FFT transformer, the
// spectrum buffer, the separable phase-ramp tables, and the memoized
// CTF profile of the last-seen parameter set.
type shardAccum struct {
	l       int
	ri      int
	r2      float64
	wiener  bool
	wrapTab []int32

	num []complex128
	den []float64

	tx           *fourier.ViewTransformer
	spec         *volume.CImage
	rampH, rampK []complex128

	// CTF memo: the CTF is radial, so within one parameter set the
	// value at bin (h,k) depends only on h²+k². Views from the same
	// defocus group (the common case: "views originated from the same
	// micrograph have the same CTF") reuse the table.
	ctfParams ctf.Params
	ctfValid  bool
	ctfTab    []float64
	ctfSet    []bool

	views  int64
	coeffs int64
}

// NewSharded creates a parallel reconstructor for l×l views and an l³
// output map.
func NewSharded(l int, opt ParallelOptions) *Sharded {
	if l < 2 {
		panic(fmt.Sprintf("reconstruct: invalid size %d", l))
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	o := opt.Options.normalized(l)
	wrapTab := make([]int32, 2*l+2)
	for i := range wrapTab {
		wrapTab[i] = int32(wrap(i-l, l))
	}
	s := &Sharded{
		l:       l,
		opt:     o,
		workers: opt.Workers,
		acc:     make([]*shardAccum, shards),
		wrapTab: wrapTab,
	}
	ri := int(o.RMax)
	maxSS := 2*ri*ri + 1
	for i := range s.acc {
		s.acc[i] = &shardAccum{
			l:       l,
			ri:      ri,
			r2:      o.RMax * o.RMax,
			wiener:  o.WienerCTF,
			wrapTab: wrapTab,
			num:     make([]complex128, l*l*l),
			den:     make([]float64, l*l*l),
			tx:      fourier.NewViewTransformer(l),
			spec:    volume.NewCImage(l),
			rampH:   make([]complex128, l),
			rampK:   make([]complex128, l),
			ctfTab:  make([]float64, maxSS),
			ctfSet:  make([]bool, maxSS),
		}
	}
	return s
}

// Views returns how many views have been inserted (or, with an open
// stream, dispatched).
func (s *Sharded) Views() int { return s.n }

// validate rejects a task the fused kernel cannot take; it runs on the
// caller's goroutine so errors are synchronous and deterministic.
func (s *Sharded) validate(t ViewTask) error {
	if t.Image.L != s.l {
		return fmt.Errorf("reconstruct: view size %d, want %d", t.Image.L, s.l)
	}
	return checkCenter(t.Center)
}

// Insert adds one view synchronously on the calling goroutine,
// striping it onto the next shard. Interleaving Insert and InsertViews
// calls is fine; both advance the same stripe counter.
func (s *Sharded) Insert(im *volume.Image, o geom.Euler, center [2]float64, p ctf.Params) error {
	t := ViewTask{Image: im, Orient: o, Center: center, CTF: p}
	if err := s.validate(t); err != nil {
		return err
	}
	s.acc[s.n%len(s.acc)].insert(t)
	s.n++
	return nil
}

// InsertViews adds a batch of views on a worker pool. Every task is
// validated before any is inserted, so a failed call leaves the
// accumulation state untouched. Tasks are striped over the shards by
// their position in the overall insertion sequence, and each shard
// processes its stripe in order on a single worker — which is what
// makes the result independent of scheduling.
func (s *Sharded) InsertViews(tasks []ViewTask) error {
	for i := range tasks {
		if err := s.validate(tasks[i]); err != nil {
			return fmt.Errorf("view %d: %w", i, err)
		}
	}
	shards := len(s.acc)
	base := s.n
	pool.RunIndexedLabeled("reconstruct.insert", shards, s.workers, func(_, sd int) {
		a := s.acc[sd]
		// The first batch index landing on shard sd: global index
		// base+i hits sd when (base+i) ≡ sd (mod shards).
		start := ((sd-base)%shards + shards) % shards
		for i := start; i < len(tasks); i += shards {
			a.insert(tasks[i])
		}
	})
	s.n += len(tasks)
	return nil
}

// Finish merges the shards in fixed index order and runs the shared
// normalize/Hermitianize/inverse-transform back half. Accumulation
// state is not mutated; the reconstructor may continue inserting views
// afterwards, and repeated calls return identical maps.
func (s *Sharded) Finish() *volume.Grid {
	num, den := s.merge()
	return finishVolume(s.l, s.opt, num, den)
}

// merge sums the shards' num/den volumes in fixed index order into
// freshly allocated volumes.
func (s *Sharded) merge() ([]complex128, []float64) {
	l := s.l
	num := make([]complex128, l*l*l)
	den := make([]float64, l*l*l)
	var t0 time.Time
	tracing := obs.ActiveTrace() != nil
	if tracing {
		t0 = time.Now()
	}
	// Merge parallelism partitions voxels (by x-plane), never shards:
	// each voxel's sum runs over the shards in index order regardless
	// of which worker owns its plane.
	pool.RunIndexedLabeled("reconstruct.merge", l, s.workers, func(_, x int) {
		lo, hi := x*l*l, (x+1)*l*l
		dstN, dstD := num[lo:hi], den[lo:hi]
		for _, a := range s.acc {
			srcN, srcD := a.num[lo:hi], a.den[lo:hi]
			for i := range dstN {
				dstN[i] += srcN[i]
				dstD[i] += srcD[i]
			}
		}
	})
	if tracing {
		obs.Span(0, 0, "shard-merge", "reconstruct", wallSeconds(t0), wallSeconds(time.Now()))
	}
	return num, den
}

// insert is the fused per-view path: one real-input 2-D DFT into
// per-shard scratch, phase ramp and CTF weighting applied per used
// coefficient from tabulated values, and the trilinear scatter inlined
// with table-wrapped indices. It allocates nothing in steady state.
//
// The scatter needs no bounds check: the rotation is orthonormal, so
// |pt| = √(h²+k²) ≤ RMax ≤ l/2, and the wrap table covers the one-cell
// overshoot floor/+1 can produce at the Nyquist boundary.
//
//repro:hotpath
func (a *shardAccum) insert(t ViewTask) {
	l := a.l
	a.tx.Transform(t.Image, a.spec)
	shift := t.Center[0] != 0 || t.Center[1] != 0
	if shift {
		fillShiftRamp(a.rampH, t.Center[0], l)
		fillShiftRamp(a.rampK, t.Center[1], l)
	}
	if a.wiener && (!a.ctfValid || t.CTF != a.ctfParams) {
		for i := range a.ctfSet {
			a.ctfSet[i] = false
		}
		a.ctfParams, a.ctfValid = t.CTF, true
	}
	rot := t.Orient.Matrix()
	xa, ya := rot.Col(0), rot.Col(1)
	wt := a.wrapTab
	spec := a.spec.Data
	num, den := a.num, a.den
	ri, r2 := a.ri, a.r2
	cnt := 0
	for h := -ri; h <= ri; h++ {
		fh := float64(h)
		hw := int(wt[h+l])
		row := hw * l
		var rh complex128
		if shift {
			rh = a.rampH[hw]
		}
		hx, hy, hz := xa.X*fh, xa.Y*fh, xa.Z*fh
		for k := -ri; k <= ri; k++ {
			fk := float64(k)
			if fh*fh+fk*fk > r2 {
				continue
			}
			kw := int(wt[k+l])
			val := spec[row+kw]
			if shift {
				val *= rh * a.rampK[kw]
			}
			w := 1.0
			if a.wiener {
				ss := h*h + k*k
				c := a.ctfTab[ss]
				if !a.ctfSet[ss] {
					c = t.CTF.Eval(t.CTF.FreqOfBin(h, k, l))
					a.ctfTab[ss], a.ctfSet[ss] = c, true
				}
				val *= complex(c, 0)
				w = c * c
			}
			px := hx + ya.X*fk
			py := hy + ya.Y*fk
			pz := hz + ya.Z*fk
			x0 := int(math.Floor(px))
			y0 := int(math.Floor(py))
			z0 := int(math.Floor(pz))
			fx, fy, fz := px-float64(x0), py-float64(y0), pz-float64(z0)
			gx, gy, gz := 1-fx, 1-fy, 1-fz
			x0w, x1w := int(wt[x0+l]), int(wt[x0+1+l])
			y0w, y1w := int(wt[y0+l]), int(wt[y0+1+l])
			z0w, z1w := int(wt[z0+l]), int(wt[z0+1+l])
			b00 := (x0w*l + y0w) * l
			b01 := (x0w*l + y1w) * l
			b10 := (x1w*l + y0w) * l
			b11 := (x1w*l + y1w) * l
			w00, w01 := gx*gy, gx*fy
			w10, w11 := fx*gy, fx*fy
			// Unrolled 2×2×2 scatter. The weight products mirror the
			// oracle's (wx·wy)·wz association exactly, so the only
			// difference from the serial path is summation grouping.
			c000, c001 := w00*gz, w00*fz
			c010, c011 := w01*gz, w01*fz
			c100, c101 := w10*gz, w10*fz
			c110, c111 := w11*gz, w11*fz
			num[b00+z0w] += val * complex(c000, 0)
			den[b00+z0w] += c000 * w
			num[b00+z1w] += val * complex(c001, 0)
			den[b00+z1w] += c001 * w
			num[b01+z0w] += val * complex(c010, 0)
			den[b01+z0w] += c010 * w
			num[b01+z1w] += val * complex(c011, 0)
			den[b01+z1w] += c011 * w
			num[b10+z0w] += val * complex(c100, 0)
			den[b10+z0w] += c100 * w
			num[b10+z1w] += val * complex(c101, 0)
			den[b10+z1w] += c101 * w
			num[b11+z0w] += val * complex(c110, 0)
			den[b11+z0w] += c110 * w
			num[b11+z1w] += val * complex(c111, 0)
			den[b11+z1w] += c111 * w
			cnt++
		}
	}
	a.views++
	a.coeffs += int64(cnt)
	viewsInserted.Inc()
	coeffsSpread.Add(int64(cnt))
}

// fillShiftRamp tabulates exp(−2πi·f·d/l) for every array index, the
// separable factor of the Fourier shift theorem along one image axis.
// Two l-entry tables replace the l² complex exponentials the generic
// ShiftPhase pays per view.
func fillShiftRamp(dst []complex128, d float64, l int) {
	for j := range dst {
		f := float64(fft.FreqIndex(j, l))
		dst[j] = cmplx.Exp(complex(0, -2*math.Pi*f*d/float64(l)))
	}
}

// Stream is a bounded streaming inserter over a Sharded reconstructor:
// one goroutine per shard drains a per-shard queue, so insertion
// overlaps with whatever produces the views (decoding, refinement, an
// HTTP body). Views are striped over the shards by arrival index —
// exactly the stripe InsertViews uses — so a stream and a batch fed
// the same view sequence produce bit-identical accumulators.
//
// Insert must be called from a single producer goroutine; Close waits
// for the queues to drain. The parent Sharded must not be used until
// Close returns.
type Stream struct {
	s      *Sharded
	chs    []chan ViewTask
	wg     sync.WaitGroup
	closed bool
}

// InsertStream starts the shard workers and returns the stream handle.
// depth is the per-shard queue depth; ≤0 selects 2. Concurrency is
// min(Shards, GOMAXPROCS); the Workers option does not apply, since
// each shard's order-preserving queue needs a dedicated consumer.
func (s *Sharded) InsertStream(depth int) *Stream {
	if depth <= 0 {
		depth = 2
	}
	st := &Stream{s: s, chs: make([]chan ViewTask, len(s.acc))}
	for i := range st.chs {
		st.chs[i] = make(chan ViewTask, depth)
		st.wg.Add(1)
		go func(a *shardAccum, ch <-chan ViewTask) {
			defer st.wg.Done()
			for t := range ch {
				a.insert(t)
			}
		}(s.acc[i], st.chs[i])
	}
	return st
}

// Insert validates the task synchronously and queues it on its shard,
// blocking when the shard's queue is full (backpressure). A validation
// error leaves the stream usable.
func (st *Stream) Insert(t ViewTask) error {
	if st.closed {
		return fmt.Errorf("reconstruct: insert on closed stream")
	}
	if err := st.s.validate(t); err != nil {
		return err
	}
	st.chs[st.s.n%len(st.chs)] <- t
	st.s.n++
	return nil
}

// Close drains the shard queues and stops the workers. It is
// idempotent; the parent Sharded is safe to use (Finish, more inserts)
// once Close returns.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	for _, ch := range st.chs {
		close(ch)
	}
	st.wg.Wait()
}

// FromViewsParallel reconstructs a map on the sharded kernel with an
// explicit execution shape. ctfs may be nil when Options.WienerCTF is
// off.
func FromViewsParallel(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt ParallelOptions) (*volume.Grid, error) {
	if err := validateSet(views, orients, centers, ctfs, opt.Options); err != nil {
		return nil, err
	}
	rec := NewSharded(views[0].L, opt)
	tasks := make([]ViewTask, len(views))
	for i := range views {
		tasks[i] = taskAt(views, orients, centers, ctfs, i)
	}
	if err := rec.InsertViews(tasks); err != nil {
		return nil, err
	}
	return rec.Finish(), nil
}

// SplitHalvesParallel builds the odd and even half-maps in one pass
// over the views: each view is routed to its half's streaming
// reconstructor as it is visited, so no per-half argument slices are
// materialized and both halves accumulate concurrently. Each half sees
// its views in dataset order, so the outputs are bit-identical to
// reconstructing the two subsets with FromViewsParallel.
func SplitHalvesParallel(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt ParallelOptions) (*volume.Grid, *volume.Grid, error) {
	odd, even, err := insertHalves(views, orients, centers, ctfs, opt)
	if err != nil {
		return nil, nil, err
	}
	return odd.Finish(), even.Finish(), nil
}

// HalvesAndFull builds the odd and even half-maps and the full map
// from one insert pass: every view goes once into its half exactly as
// in SplitHalvesParallel, so the halves are bit-identical to its
// output. The full map adds the two halves' merged num/den sums in
// fixed (odd, even) order and runs the shared finish, so it differs
// from FromViewsParallel over all views only in summation grouping
// (≤1e-12) and is bit-identical at every worker count.
func HalvesAndFull(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt ParallelOptions) (odd, even, full *volume.Grid, err error) {
	so, se, err := insertHalves(views, orients, centers, ctfs, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	// Past the merges the shard accumulators are garbage, so only the
	// two halves' merged sums stay live through the three finishes.
	l, fo := so.l, so.opt
	numO, denO := so.merge()
	numE, denE := se.merge()
	odd = finishVolume(l, fo, numO, denO)
	even = finishVolume(l, fo, numE, denE)
	for i := range numO {
		numO[i] += numE[i]
		denO[i] += denE[i]
	}
	return odd, even, finishVolume(l, fo, numO, denO), nil
}

// insertHalves is the shared insert pass of SplitHalvesParallel and
// HalvesAndFull: views 1, 3, 5… (1-based) stream into the odd
// accumulator and views 2, 4, 6… into the even one, each half in
// dataset order.
func insertHalves(views []*volume.Image, orients []geom.Euler, centers [][2]float64, ctfs []ctf.Params, opt ParallelOptions) (*Sharded, *Sharded, error) {
	if err := validateSet(views, orients, centers, ctfs, opt.Options); err != nil {
		return nil, nil, err
	}
	if len(views) < 2 {
		return nil, nil, fmt.Errorf("reconstruct: need at least 2 views to split")
	}
	odd := NewSharded(views[0].L, opt)
	even := NewSharded(views[0].L, opt)
	so := odd.InsertStream(0)
	se := even.InsertStream(0)
	for i := range views {
		t := taskAt(views, orients, centers, ctfs, i)
		var err error
		if i%2 == 0 { // view 1, 3, 5... in 1-based numbering
			err = so.Insert(t)
		} else {
			err = se.Insert(t)
		}
		if err != nil { // unreachable: validateSet vetted every task
			so.Close()
			se.Close()
			return nil, nil, err
		}
	}
	so.Close()
	se.Close()
	return odd, even, nil
}
