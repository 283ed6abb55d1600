package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimeClipsChildAtParentEdge(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 10, Parent: -1},
		// Starts before its parent and ends inside it: only [2, 4)
		// is the parent's.
		{Name: "cycle.cycle", Start: 2, End: 8, Parent: 0},
		{Name: "core.level0", Start: 1, End: 4, Parent: 1},
		// Runs past the parent's end: only [6, 8) counts.
		{Name: "serve.journal_level", Start: 6, End: 9, Parent: 1},
	}
	self := selfTimes(spans)
	want := []float64{4, 2, 3, 3}
	for i, w := range want {
		if !near(self[i], w) {
			t.Fatalf("span %s self %g, want %g", spans[i].Name, self[i], w)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 10, Parent: -1},
		{Name: "a.x", Start: 1, End: 5, Parent: 0},
		{Name: "b.y", Start: 3, End: 6, Parent: 0},
		{Name: "c.z", Start: 8, End: 9, Parent: 0},
	}
	// The union of the children is [1, 6) ∪ [8, 9): 6 s covered.
	if self := selfTimes(spans); !near(self[0], 4) {
		t.Fatalf("parent self %g, want 4", self[0])
	}
}

func TestSelfByLayer(t *testing.T) {
	rec := &recorder{}
	rec.spans = []span{
		{Name: "job", Job: "j1", Start: 0, End: 10, Parent: -1},
		{Name: "workload.build", Job: "j1", Start: 0, End: 1, Parent: 0},
		{Name: "cycle.cycle", Job: "j1", Start: 1, End: 9, Parent: 0},
		{Name: "core.level0", Job: "j1", Start: 2, End: 7, Parent: 2},
		// A probe root is not part of any job's wall time.
		{Name: "probe", Job: "j1", Start: 10, End: 12, Parent: -1},
		{Name: "fsc.compute", Job: "j1", Start: 10, End: 11, Parent: 4},
	}
	got := selfByLayer(rec.spans)
	want := map[string]float64{"unaccounted": 1, "workload": 1, "cycle": 3, "core": 5}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for l, w := range want {
		if !near(got[l], w) {
			t.Fatalf("layer %s self %g, want %g", l, got[l], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("job", "j")
	a := rec.begin("cycle.cycle", "j")
	b := rec.begin("core.level0", "j")
	rec.end(a) // closes b too
	rec.end(b) // no longer open: no effect
	c := rec.begin("serve.journal_terminal", "j")
	rec.end(c)
	rec.end(root)
	if rec.spans[b].Parent != a || rec.spans[a].Parent != root || rec.spans[c].Parent != root {
		t.Fatalf("parents: %+v", rec.spans)
	}
	if rec.spans[b].End != rec.spans[a].End {
		t.Fatalf("inner span not closed with its parent: %+v", rec.spans)
	}
	if len(rec.stack) != 0 {
		t.Fatalf("open spans left: %v", rec.stack)
	}
}
