package main

import (
	"math"

	"repro/internal/serve"
)

// workloadDef is one benchmark workload: the jobs its single closed-loop
// submitter sends, one after another, and the warm-up job each set-up
// runs at the workload's box size.
type workloadDef struct {
	name   string
	warmup serve.JobSpec
	job    func(seed int64, i int) serve.JobSpec
	// nominalJobS is the mean job time measured once on a 2-vCPU VM
	// when the benchmark was written. It fixes how many jobs a run
	// sends (jobCount), so the set of jobs a run averages over never
	// depends on how fast the program is.
	nominalJobS float64
	// watch starts the watcher client beside the submitter.
	watch bool
}

// jobCount is the number of jobs a run of the given length sends: as
// many as take that long at the nominal job time, and at least one.
func (w workloadDef) jobCount(seconds float64) int {
	return max(1, int(math.Round(seconds/w.nominalJobS)))
}

// jobSeed derives job i's init and search seed from the workload seed,
// so a run's jobs differ from one another and the same workload seed
// always yields the same jobs.
func jobSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// The job shapes. cycle-deep is the ROADMAP's baseline job:
// sindbis-like at scale 1.5 (L=32, 53 views), 3 levels, plateau
// defaults, at most 8 cycles. cycle-wide is reo-like at its native
// size (L=56, 70 views), 1 level, a fixed 5 cycles. The service mix
// sends one small cycle job, then two small refine jobs, at L=16: with
// an even split the median turnaround would fall in the gap between
// the two kinds' durations and jump from run to run, while at two to
// one the median is a refine job's and the p90 a cycle job's. Every
// workload's first job is a cycle job, so every metric has a sample.
var workloads = []workloadDef{
	{
		name:   "cycle-deep",
		warmup: serve.JobSpec{Type: serve.TypeCycle, Dataset: "sindbis", Scale: 1.5, Views: 8, Levels: 1, MaxCycles: 1},
		job: func(seed int64, i int) serve.JobSpec {
			s := jobSeed(seed, i)
			return serve.JobSpec{Type: serve.TypeCycle, Dataset: "sindbis", Scale: 1.5, Levels: 3, MaxCycles: 8, InitSeed: s, SearchSeed: s}
		},
		nominalJobS: 5,
	},
	{
		name:   "cycle-wide",
		warmup: serve.JobSpec{Type: serve.TypeCycle, Dataset: "reo", Views: 8, Levels: 1, MaxCycles: 1},
		job: func(seed int64, i int) serve.JobSpec {
			s := jobSeed(seed, i)
			return serve.JobSpec{Type: serve.TypeCycle, Dataset: "reo", Levels: 1, MaxCycles: 5, PlateauWindow: -1, InitSeed: s, SearchSeed: s}
		},
		nominalJobS: 4.4,
	},
	{
		name:   "service-mix",
		warmup: serve.JobSpec{Type: serve.TypeCycle, Dataset: "sindbis", Scale: 3, Views: 8, Levels: 1, MaxCycles: 1},
		job: func(seed int64, i int) serve.JobSpec {
			s := jobSeed(seed, i)
			if i%3 != 0 {
				return serve.JobSpec{Type: serve.TypeRefine, Dataset: "asymmetric", Scale: 2.5, Levels: 1, InitSeed: s, SearchSeed: s}
			}
			return serve.JobSpec{Type: serve.TypeCycle, Dataset: "sindbis", Scale: 3, Levels: 1, MaxCycles: 2, PlateauWindow: -1, InitSeed: s, SearchSeed: s}
		},
		nominalJobS: 0.03,
		watch:       true,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
