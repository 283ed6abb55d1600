package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each named metric is present with its unit and that the
// output checks pass.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cycle job of every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code, err := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.001", "--trace", trace}, &out)
			if err != nil || code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %v\n%s", w.name, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: correct=%t failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
			if trace == "1" {
				if _, err := os.Stat(".bench_build/spans-" + w.name + ".json"); err != nil {
					t.Errorf("%s: span list not written: %v", w.name, err)
				}
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cycle-deep", "--trace", "2"},
		{"--workload", "cycle-deep", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code, err := run(args, &out); code == 0 || err == nil || out.Len() != 0 {
			t.Errorf("%v: exit %d, err %v, output %q", args, code, err, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics, the program has %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s %d: %+v vs %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
