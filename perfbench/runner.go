package main

import (
	"fmt"
	"sort"
	"time"

	"fcatch/internal/core"
)

// bench is one workload: a fixed list of systems the closed loop cycles
// through, one operation per system visit.
type bench interface {
	// systems are the Table 1 systems the workload cycles through.
	systems() []core.Workload
	// config is the workload configuration stamped on every result.
	config() map[string]any
	// setup builds the workload, runs the golden checks (each one counted
	// operation) and computes the reference outputs the operations are
	// checked against. An error means the benchmark cannot run at all.
	setup(led *ledger) error
	// op runs one operation on system sys and checks its output; a nil
	// tracer runs it untraced. An error is a failed operation.
	op(sys int, tr *tracer) (opRecord, error)
	// finish runs the checks that need every operation's output.
	finish(led *ledger)
	// layers adds the workload's per-layer metrics, derived from the traced
	// operations and the workload's own probes, and returns the sim runs of
	// one pass for the replay probe.
	layers(tr *tracer, led *ledger, lm metrics, notes *[]string) []simRun
	// extra adds the workload's documented end-to-end metrics that the
	// result line does not carry (they are not defined on every workload).
	extra(ops []opRecord, m metrics)
}

// opRecord is one successful operation.
type opRecord struct {
	sys int
	// total is the operation's latency; on eval-sweep, detect is the part
	// up to the detection reports.
	total, detect time.Duration
	// heap is the operation's heap high-water mark above the live heap
	// it started from, in MiB.
	heap float64
	// runs are the simulator runs the operation committed; failures the
	// distinct failures it found.
	runs, failures int
}

// loop is the closed loop: one operation at a time, cycling through the
// systems, until the window has passed and every system ran at least once.
// A non-nil heap watch records each operation's heap high-water mark.
func loop(b bench, window time.Duration, tr *tracer, hw *heapWatch, led *ledger) []opRecord {
	n := len(b.systems())
	deadline := time.Now().Add(window)
	var out []opRecord
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		if hw != nil {
			hw.mark()
		}
		rec, err := b.op(i%n, tr)
		led.op(err)
		if err == nil {
			rec.sys = i % n
			if hw != nil {
				rec.heap = hw.peakMiB()
			}
			out = append(out, rec)
		}
	}
	return out
}

// pass is one pass over every system: per-system medians, summed.
type pass struct {
	total          time.Duration
	runs, failures float64
	heap           float64
}

// summarize folds operations into the median pass: per system, the median
// latency and run count and the mean distinct-failure count, summed over
// systems, so a window that ends mid-cycle does not skew the system mix.
// The heap peak is the largest per-system median of per-operation peaks.
// A system on which every operation failed is left out of the pass.
func summarize(n int, ops []opRecord) (pass, error) {
	totals := make([][]float64, n)
	runs := make([][]float64, n)
	heaps := make([][]float64, n)
	fails := make([]float64, n)
	for _, o := range ops {
		totals[o.sys] = append(totals[o.sys], float64(o.total))
		runs[o.sys] = append(runs[o.sys], float64(o.runs))
		heaps[o.sys] = append(heaps[o.sys], o.heap)
		fails[o.sys] += float64(o.failures)
	}
	var p pass
	covered := 0
	for s := 0; s < n; s++ {
		if len(totals[s]) == 0 {
			// Every operation on this system failed; the failures are
			// counted, and the pass covers the other systems.
			continue
		}
		covered++
		p.total += time.Duration(median(totals[s]))
		p.runs += median(runs[s])
		p.heap = max(p.heap, median(heaps[s]))
		p.failures += fails[s] / float64(len(totals[s]))
	}
	if covered == 0 {
		return pass{}, fmt.Errorf("no operation succeeded")
	}
	return p, nil
}

// passMetrics are the pass metrics every workload reports on its result
// line.
func passMetrics(p pass, m metrics) {
	m.set("pass_ms", ms(p.total), "ms")
	m.set("runs_per_s", p.runs/p.total.Seconds(), "runs/s")
	m.set("unique_failures", p.failures, "count")
}

// runUntraced measures the end-to-end metrics: set-up (repeated, median
// reported), then the closed loop with heap sampling, then deferred checks.
func runUntraced(b bench, window time.Duration) (*outcome, error) {
	led := &ledger{}
	var setups []float64
	for i := 0; i < untracedSetups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		if err := b.setup(led); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	hw := startHeapWatch()
	ops := loop(b, window, nil, hw, led)
	hw.close()
	b.finish(led)
	p, err := summarize(len(b.systems()), ops)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("peak_heap_mb", p.heap, "MiB")
	passMetrics(p, m)

	rm := metrics{}
	for k, v := range m {
		rm[k] = v
	}
	rm.set("op_error_share", ratio(float64(led.failed), float64(led.attempted)), "ratio")
	rm.set("ops", float64(len(ops)), "count")
	for s, w := range b.systems() {
		var d []float64
		for _, o := range ops {
			if o.sys == s {
				d = append(d, ms(o.total))
			}
		}
		rm.set("op_ms."+goldenName(w.Name()), median(d), "ms")
	}

	b.extra(ops, rm)
	return &outcome{led: led, metrics: m, report: report{Metrics: rm, Notes: led.notes}}, nil
}

// perLayerNames are the per-layer metrics every workload's traced run
// emits on its result line; the report line carries the workload-specific
// rest (README.md lists them).
var perLayerNames = []string{
	"sim.ns_per_step.traced",
	"sim.ns_per_step.untraced",
	"sim.trace_overhead_x",
	"sim.budget_step_share",
	"spans.unattributed_share",
}

// runTraced measures the per-layer metrics: one set-up, half the window
// untraced and half span-traced (the difference is the tracing overhead),
// then the workload's probes and the sim replay probe.
func runTraced(b bench, window time.Duration) (*outcome, error) {
	led := &ledger{}
	for i := 0; i < tracedSetups; i++ {
		if err := b.setup(led); err != nil {
			return nil, err
		}
	}
	n := len(b.systems())
	plain := loop(b, window/2, nil, nil, led)
	tr := newTracer()
	traced := loop(b, window/2, tr, nil, led)

	lm := metrics{}
	var notes []string
	runs := b.layers(tr, led, lm, &notes)
	simProbe(runs, lm, &notes)
	b.finish(led)

	pp, err := summarize(n, plain)
	if err != nil {
		return nil, err
	}
	tp, err := summarize(n, traced)
	if err != nil {
		return nil, err
	}
	passes := float64(len(traced)) / float64(n)
	att := tr.attribute()
	lm.set("spans.unattributed_share", ratio(float64(att.unattributed), float64(att.opWall)), "ratio")
	self := map[string]float64{}
	layers := make([]string, 0, len(att.self))
	for l := range att.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	// Fanned-out spans overlap, so self times add up to busy time, which can
	// exceed wall time; the shares are of busy time.
	busy := att.unattributed
	for _, l := range layers {
		busy += att.self[l]
	}
	for _, l := range layers {
		self[l] = ms(att.self[l]) / passes
		lm.set("self_share."+l, ratio(float64(att.self[l]), float64(busy)), "ratio")
	}
	self["unattributed"] = ms(att.unattributed) / passes
	// The tracing overhead: each end-to-end timing of the traced half minus
	// the same timing of the untraced half.
	rm, um := metrics{}, metrics{}
	passMetrics(tp, rm)
	b.extra(traced, rm)
	passMetrics(pp, um)
	b.extra(plain, um)
	for name, u := range um {
		if u.Unit == "ms" {
			lm.set("overhead."+name, rm[name].Value-u.Value, "ms")
		}
	}

	m := metrics{}
	for _, name := range perLayerNames {
		v, ok := lm[name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", name)
		}
		m[name] = v
	}
	rm.set("untraced.pass_ms", ms(pp.total), "ms")
	rm.set("op_error_share", ratio(float64(led.failed), float64(led.attempted)), "ratio")
	notes = append(notes, led.notes...)
	return &outcome{led: led, metrics: m, report: report{Metrics: rm, Layers: lm, SelfMs: self, Notes: notes}}, nil
}
