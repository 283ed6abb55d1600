package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/micrograph"
)

// goldenRefine pins the exact float64 bits of an adaptive refinement
// (Orient, Center, Distance per view) so a refactor of the matching
// kernel that changes any arithmetic — the cut sampling order, the CTF
// cut weighting, the lattice orientation materialization — fails
// loudly rather than drifting within the oracle tests' tolerances.
// Entries are the Float64bits of θ, φ, ω, dx, dy and d per view. The
// CTF-weighted case matters most: no benchmark dataset sets ApplyCTF.
var goldenRefine = map[bool][][6]uint64{
	false: {
		{0x405e39999999999a, 0x4067500000000000, 0x4070e00000000000, 0x3fdbd73468c55213, 0xbfea2362b7680269, 0x405b76139f1728a8},
		{0x405eb9999999999a, 0x4073080000000000, 0x4070266666666667, 0x3fe64a680ad54521, 0xbfc46e2fcc2f32e5, 0x405601d3421302ba},
		{0x4057466666666667, 0x406e5ccccccccccd, 0x4068eccccccccccd, 0xbfee379186e3bbe5, 0x3fefe85b91b94ed9, 0x40570ca7823c432a},
	},
	true: {
		{0x405f266666666667, 0x40678ccccccccccd, 0x4070600000000000, 0x3fdfbd93584296dd, 0xbfe41e60df63fa88, 0x3fd1703cc90b8000},
		{0x405d200000000000, 0x40726b3333333333, 0x406f100000000000, 0x3fed7cc82d31b9db, 0xbfd5e0186546e7f6, 0x3fe0129d2fe7da00},
		{0x405919999999999a, 0x40700b3333333333, 0x4069d00000000000, 0xbff082c01f85be05, 0x3fea858506c1fc85, 0x3fdd46d42e873000},
	},
}

func TestAdaptiveRefineGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// last bits; the goldens were recorded on amd64.
		t.Skipf("golden bits recorded on amd64, running on %s", runtime.GOARCH)
	}
	const l = 16
	dft, ds := testSetup(t, l, 3, micrograph.GenParams{Seed: 41, CenterJitter: 1, ApplyCTF: true, DefocusGroups: 2})
	inits := ds.PerturbedOrientations(1.5, 42)
	for _, weight := range []bool{false, true} {
		cfg := quickConfig(l)
		cfg.SearchSeed = 9
		cfg.CorrectCTF = true
		cfg.CTFWeightCuts = weight
		r, err := NewRefiner(dft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range ds.Views {
			pv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				t.Fatal(err)
			}
			res := r.RefineView(pv, inits[i])
			got := [6]uint64{
				math.Float64bits(res.Orient.Theta), math.Float64bits(res.Orient.Phi), math.Float64bits(res.Orient.Omega),
				math.Float64bits(res.Center[0]), math.Float64bits(res.Center[1]), math.Float64bits(res.Distance),
			}
			if want := goldenRefine[weight][i]; got != want {
				t.Errorf("CTFWeightCuts=%v view %d: bits %#x, want %#x", weight, i, got, want)
			}
		}
	}
}
