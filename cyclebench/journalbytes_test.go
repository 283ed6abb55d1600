package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/geom"
	"repro/internal/serve"
)

// writeJournal journals one small cycle job whose map artifact lives
// at artifactDir, and returns the journal bytes.
func writeJournal(t *testing.T, artifactDir string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, err := serve.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	results := []core.Result{{Orient: geom.Euler{Theta: 1, Phi: 2, Omega: 3}, PerLevel: []core.LevelStats{{Matchings: 7, Shifts: [][2]float64{{0.5, -0.25}}}}}}
	steps := []error{
		j.Submit("job-000001", serve.JobSpec{Type: serve.TypeCycle, Dataset: "sindbis"}),
		j.CycleStart("job-000001", 0),
		j.Level("job-000001", 0, results),
		j.CycleMap("job-000001", 0, filepath.Join(artifactDir, "job-000001.cycle-0.map"), "abc123"),
		j.CycleEnd("job-000001", cycle.CycleFSC{ResolutionA: 12.5}, cycle.StopMaxCycles),
		j.Terminal("job-000001", serve.StateDone, "", &serve.Summary{MeanAngularError: 1}),
		j.Close(),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestScanJournalIgnoresArtifactPath(t *testing.T) {
	short := writeJournal(t, "/a")
	long := writeJournal(t, "/a/much/longer/artifact/directory/"+strings.Repeat("x", 37))
	if len(short) == len(long) {
		t.Fatal("journals should differ in raw size")
	}
	a, err := scanJournal(short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanJournal(long)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"submit", "cycle_start", "level", "cycle_map", "cycle_end", "terminal"}
	for _, k := range kinds {
		if a.ByKind[k] == 0 || a.ByKind[k] != b.ByKind[k] || a.Count[k] != 1 {
			t.Fatalf("kind %s: %d vs %d bytes (count %d)", k, a.ByKind[k], b.ByKind[k], a.Count[k])
		}
	}
	if len(a.ByKind) != len(kinds) {
		t.Fatalf("kinds %v", a.ByKind)
	}
	if a.LevelMax != a.ByKind["level"] {
		t.Fatalf("level max %d, level total %d", a.LevelMax, a.ByKind["level"])
	}
	want := mapRecord{ID: "job-000001", Cycle: 0, MapPath: "/a/job-000001.cycle-0.map", MapDigest: "abc123"}
	if len(a.Maps) != 1 || a.Maps[0] != want {
		t.Fatalf("map records %+v, want [%+v]", a.Maps, want)
	}
	// Every byte not belonging to the path is counted.
	var total int64
	for _, n := range a.ByKind {
		total += n
	}
	if want := int64(len(short)) - int64(len(`"/a/job-000001.cycle-0.map"`)); total != want {
		t.Fatalf("counted %d bytes, want %d", total, want)
	}
}

func TestScanJournalRejectsMalformed(t *testing.T) {
	if _, err := scanJournal([]byte("{\"kind\":\"submit\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}
