package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// The tests shrink campaigns to 40 runs and the window to a single pass, so
// they check the benchmark's structure and its checks, not its timings.
const testBudget = 40

func testBench(t *testing.T, name string, seed int64) bench {
	t.Helper()
	b, err := newBench(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cb, ok := b.(*campaignBench); ok {
		cb.cfg.Budget = testBudget
	}
	return b
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// reportOnly are the documented end-to-end metrics each workload carries on
// its report line, beyond the result-line set.
var reportOnly = map[string][]string{
	"eval-sweep":        {"op_error_share", "detect_ms_p50", "detect_ms_p90", "verdict_ms_p50", "verdict_ms_p90"},
	"campaign-coverage": {"op_error_share"},
	"dist-coverage":     {"op_error_share"},
}

// checkMetrics asserts got holds exactly the named metrics with their units.
func checkMetrics(t *testing.T, wl string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d: %v", wl, len(got), len(want), got)
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", wl, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", wl, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestMetricNamesAndUnitsPerWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workload) != len(workloadCtors) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workload), len(workloadCtors))
	}
	for _, list := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, metricName)
			}
		}
	}
	for _, w := range spec.Workload {
		for _, traced := range []bool{false, true} {
			b := testBench(t, w.Name, 1)
			run := runUntraced
			want := spec.EndToEnd
			if traced {
				run, want = runTraced, spec.PerLayer
			}
			out, err := run(b, time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if out.led.failed != 0 {
				t.Errorf("%s traced=%v: %d failed operations: %v", w.Name, traced, out.led.failed, out.led.notes)
			}
			checkMetrics(t, w.Name, out.metrics, want)
			for name, m := range out.metrics {
				if m.Value == 0 {
					t.Errorf("%s traced=%v: metric %s is 0", w.Name, traced, name)
				}
			}
			for _, rm := range []metrics{out.report.Metrics, out.report.Layers} {
				for name, m := range rm {
					if !metricName.MatchString(name) || m.Unit == "" {
						t.Errorf("%s: report metric %q (unit %q) is malformed", w.Name, name, m.Unit)
					}
				}
			}
			if !traced {
				for _, name := range reportOnly[w.Name] {
					if _, ok := out.report.Metrics[name]; !ok {
						t.Errorf("%s: report line lacks %s", w.Name, name)
					}
				}
			}
		}
	}
}

// A corrupted output must count as one failed operation: the checks are
// not vacuous.
func TestCorruptedOutputIsAFailedOperation(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(b bench)
	}{
		{"eval-sweep", func(b bench) {
			b.(*evalSweep).mutate = func(n int, out *evalOutput) {
				if n == 2 {
					out.reports = bytes.Replace(out.reports, []byte("inFaulty="), []byte("inFaulty=!"), 1)
				}
			}
		}},
		{"eval-sweep", func(b bench) {
			b.(*evalSweep).mutate = func(n int, out *evalOutput) {
				if n == 3 {
					out.verdicts = append(out.verdicts, "extra verdict\n"...)
				}
			}
		}},
		{"campaign-coverage", func(b bench) { b.(*campaignBench).mutate = flipVerdict(1) }},
		{"dist-coverage", func(b bench) { b.(*campaignBench).mutate = flipVerdict(2) }},
	}
	for _, c := range cases {
		b := testBench(t, c.workload, 1)
		c.corrupt(b)
		out, err := runUntraced(b, time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if out.led.failed != 1 {
			t.Errorf("%s: %d failed operations, want exactly the corrupted one: %v", c.workload, out.led.failed, out.led.notes)
		}
	}
}

// flipVerdict corrupts operation n's corpus: the first entry's verdict,
// which every check samples, changes.
func flipVerdict(n int) func(int, []byte) []byte {
	verdict := regexp.MustCompile(`"verdict": "[a-z]+"`)
	return func(op int, corpus []byte) []byte {
		if op != n {
			return corpus
		}
		loc := verdict.FindIndex(corpus)
		bad := []byte(`"verdict": "failure"`)
		if bytes.Equal(corpus[loc[0]:loc[1]], bad) {
			bad = []byte(`"verdict": "tolerated"`)
		}
		return append(append(append([]byte(nil), corpus[:loc[0]]...), bad...), corpus[loc[1]:]...)
	}
}

// Two seeds reach the program: their distributed corpora differ, and both
// pass their checks.
func TestSeedsGiveDifferentDistCorpora(t *testing.T) {
	corpora := map[int64][]byte{}
	for _, seed := range []int64{1, 2} {
		b := testBench(t, "dist-coverage", seed)
		out, err := runUntraced(b, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if out.led.failed != 0 {
			t.Fatalf("seed %d: %d failed operations: %v", seed, out.led.failed, out.led.notes)
		}
		corpora[seed] = b.(*campaignBench).outputs[0][0].data
	}
	if bytes.Equal(corpora[1], corpora[2]) {
		t.Fatal("seeds 1 and 2 gave byte-identical dist-coverage corpora")
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, id identity) string {
		line, err := json.Marshal(map[string]any{"report": report{Identity: id, Metrics: metrics{"pass_ms": {1, "ms"}}}})
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := newIdentity("eval-sweep", 1, time.Second, false, map[string]any{"parallelism": 2})
	other := base
	other.Seed = 7
	var out, errOut bytes.Buffer
	if code := compareOutputs([]string{write("a", base), write("b", other)}, &out, &errOut); code != 0 {
		t.Fatalf("same host, different seed: exit %d: %s", code, errOut.String())
	}
	moved := base
	moved.NumCPU++
	if code := compareOutputs([]string{write("a", base), write("c", moved)}, &out, &errOut); code != 2 {
		t.Fatalf("different host: exit %d, want 2", code)
	}
}

func TestSpanAttribution(t *testing.T) {
	tr := &tracer{}
	tr.add(rootSpan, -1, 0, 100)
	tr.add("core.Observe", 0, 10, 50)
	tr.add("sim.Run", 1, 10, 40)
	tr.add("inject.Trigger", 0, 60, 90)
	tr.add("inject.Trigger", 0, 70, 95)
	a := tr.attribute()
	if a.opWall != 100 || a.unattributed != 100-40-35 {
		t.Fatalf("wall %v unattributed %v, want 100 and 25", a.opWall, a.unattributed)
	}
	if a.self["core"] != 10 || a.self["sim"] != 30 || a.self["inject"] != 55 {
		t.Fatalf("self times %v", a.self)
	}
}
