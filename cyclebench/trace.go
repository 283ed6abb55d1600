package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Times are seconds since
// the recorder's origin; Parent indexes the enclosing span (-1 for a
// root). Spans of one job share its Job id.
type span struct {
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the span name's prefix up to the first '.', which is the
// repository module the span times ("core.level0" → "core").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory. It is used from one goroutine: the
// cycle driver runs its hooks on the calling goroutine, so an open-span
// stack gives every span its parent.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.origin).Seconds() }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name, job string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	t := r.now()
	r.spans = append(r.spans, span{Name: name, Job: job, Start: t, End: t, Parent: parent})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id and any spans opened inside it that are still
// open (an aborted driver run leaves them so). Ending a span that is
// not open does nothing.
func (r *recorder) end(id int) {
	open := false
	for _, s := range r.stack {
		open = open || s == id
	}
	if !open {
		return
	}
	t := r.now()
	for len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.spans[top].End = t
		if top == id {
			return
		}
	}
}

// timed records fn as a complete span.
func (r *recorder) timed(name, job string, fn func() error) error {
	id := r.begin(name, job)
	err := fn()
	r.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children are clipped to the parent's interval and
// their union is subtracted, so overlapping children are not counted
// twice and a child that runs past its parent's edge only removes the
// part inside the parent.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, p := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < p.Start {
				a = p.Start
			}
			if b > p.End {
				b = p.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := 0.0, p.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// selfByLayer sums self time per layer; the root "job" spans' self
// time is reported under "unaccounted". Spans of other roots (the
// post-job probes) are left out: they are not part of any job's wall
// time.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	out := map[string]float64{}
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent]
		}
		if spans[root[i]].Name != "job" {
			continue
		}
		if s.Parent < 0 {
			out["unaccounted"] += self[i]
			continue
		}
		out[s.layer()] += self[i]
	}
	return out
}

// sumByName totals the durations of spans with the given name.
func sumByName(spans []span, name string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// writeSpans writes the span list and the per-layer self-time table as
// one JSON document.
func writeSpans(path string, spans []span, selfTable map[string]float64) error {
	doc := struct {
		Spans    []span             `json:"spans"`
		SelfTime map[string]float64 `json:"self_time_s"`
	}{spans, selfTable}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
