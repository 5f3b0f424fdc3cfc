package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command,end_to_end,paths,per_layer,run_seconds,workloads"; strings.Join(got, ",") != want {
		t.Fatalf("BENCHMARK.json keys %v, want %s", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metric and
// workload lists the program prints in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %q/%q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, program has %d", len(b.EndToEnd), len(e2eMetrics))
	}
	sawSetup := false
	for i, m := range e2eMetrics {
		f := b.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit {
			t.Errorf("end_to_end %d: file %s/%s, program %s/%s", i, f.Name, f.Unit, m.name, m.unit)
		}
		if f.Bound == nil || *f.Bound <= 0 || *f.Bound > 0.25 {
			t.Errorf("%s: bound must lie in (0, 0.25]", f.Name)
		}
		if f.Better != "lower" && f.Better != "higher" {
			t.Errorf("%s: better %q", f.Name, f.Better)
		}
		if f.Name == "setup_s" {
			sawSetup = f.Unit == "s" && f.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, program has %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if f := b.PerLayer[i]; f.Name != m.name || f.Unit != m.unit {
			t.Errorf("per_layer %d: file %s/%s, program %s/%s", i, f.Name, f.Unit, m.name, m.unit)
		}
	}
}

func TestResultSchema(t *testing.T) {
	data, err := json.Marshal(result{Correct: true, Attempted: 3, Failed: 1,
		Metrics: map[string]metric{"setup_s": {Value: 0.25, Unit: "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
	if want := `{"value":0.25,"unit":"s"}`; !strings.Contains(string(data), want) {
		t.Errorf("metric encoding %s lacks %s", data, want)
	}
}

// TestRunWithoutBinariesFails: outside a built checkout the benchmark
// must fail without printing a result.
func TestRunWithoutBinariesFails(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-workload", "quote-mix", "-bin", t.TempDir(), "-work", t.TempDir()}, &out)
	if err == nil {
		t.Fatal("run succeeded without binaries")
	}
	if out.Len() != 0 {
		t.Errorf("printed %q", out.String())
	}
	if err := run(context.Background(), []string{"-workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(3), End: ms(6)},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: ms(8), End: ms(12)}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "c", Start: ms(2), End: ms(3)},
	}
	got := map[string]time.Duration{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s.Self
	}
	// root: 10 − |[1,6] ∪ [8,10]| = 10 − 7 = 3; a: (3 − 1) + 3 = 5; b: 4; c: 1.
	want := map[string]time.Duration{"root": ms(3), "a": ms(5), "b": ms(4), "c": ms(1)}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.start("x", 1, 0)
	s.end()
	if s.id() != 0 || tr.record("y", 1, 0, time.Now(), time.Now()) != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}
