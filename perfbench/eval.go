package main

import (
	"fmt"
	"time"

	"fcatch"
	"fcatch/internal/core"
	"fcatch/internal/detect"
	"fcatch/internal/hb"
	"fcatch/internal/inject"
	"fcatch/internal/obs"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// evalSweep is the paper's own pipeline (Tables 2–5): for each of the six
// Table 1 systems in turn, fcatch.Detect with selective tracing and an
// early observation crash, then fcatch.Trigger on every report — what a
// user of `fcatch trigger -workload X` waits for.
type evalSweep struct {
	seed  int64
	sys   []core.Workload
	ref   []evalOutput // the set-up sweep's outputs, per system
	runs  []int        // simulator runs per operation, per system
	ops   int
	stats evalStats
	last  []*evalTrace // per system: the latest traced operation

	// mutate, when set, may alter operation n's output before its check
	// (the benchmark's own tests corrupt one to show the check bites).
	mutate func(n int, out *evalOutput)
}

type evalOutput struct{ reports, verdicts []byte }

// evalStats accumulates the traced operations' per-layer counts.
type evalStats struct {
	attempts, records, reports, triggered, trueBugs int
	ops                                             int
}

// evalTrace keeps what the probes need from a traced operation.
type evalTrace struct {
	res  *core.Result
	gf   *hb.Graph
	gy   *hb.Graph
	dopt detect.Options
}

func newEvalSweep(seed int64) bench { return &evalSweep{seed: seed} }

func (e *evalSweep) systems() []core.Workload { return e.sys }

func (e *evalSweep) config() map[string]any {
	return map[string]any{
		"systems": names(e.sys), "phase": "begin", "tracing": "selective",
		"parallelism": parallelism,
	}
}

func (e *evalSweep) options(seed int64) core.Options {
	return core.Options{Seed: seed, Phase: fcatch.PhaseBegin, Tracing: sim.TraceSelective, Parallelism: parallelism}
}

// setup checks every system's seed-1 reports against the goldens, then runs
// the reference sweep at the workload seed (which is also the warm-up).
// A repeated set-up must reproduce the previous reference exactly.
func (e *evalSweep) setup(led *ledger) error {
	e.sys = fcatch.Workloads()
	for _, w := range e.sys {
		res, err := fcatch.Detect(w, e.options(goldenSeed))
		if err != nil {
			led.op(fmt.Errorf("golden reports %s: %w", w.Name(), err))
			continue
		}
		led.op(checkGolden("golden reports "+w.Name(), renderReports(res), goldenPath(w.Name(), "reports.txt")))
	}
	ref := make([]evalOutput, len(e.sys))
	runs := make([]int, len(e.sys))
	for i, w := range e.sys {
		opts := e.options(e.seed)
		reg := obs.New()
		opts.Metrics = reg
		res, err := fcatch.Detect(w, opts)
		if err != nil {
			// Every operation on this system will fail its check too.
			led.op(fmt.Errorf("eval-sweep reference %s: %w", w.Name(), err))
			continue
		}
		outs := fcatch.Trigger(w, res)
		ref[i] = evalOutput{renderReports(res), renderVerdicts(outs)}
		runs[i] = observationRuns(reg.Snapshot()) + triggerRuns(outs)
	}
	if e.ref != nil {
		for i, w := range e.sys {
			led.op(e.compare(w.Name()+" repeated set-up", i, ref[i]))
		}
	}
	e.ref, e.runs = ref, runs
	return nil
}

// observationRuns counts the observation runs a detection pass made: the
// fault-free run plus every faulty attempt (HB2 retries).
func observationRuns(s obs.Snapshot) int {
	return int(s.Spans["core/observe/fault-free"].Count + s.Spans["core/observe/faulty-attempt"].Count)
}

// triggerRuns counts trigger replays: one per fault type tried.
func triggerRuns(outs []*fcatch.TriggerOutcome) int {
	n := 0
	for _, o := range outs {
		n += len(o.ByAction)
	}
	return n
}

func trueBugs(outs []*fcatch.TriggerOutcome) int {
	n := 0
	for _, o := range outs {
		if o.Class == fcatch.TrueBug {
			n++
		}
	}
	return n
}

func (e *evalSweep) compare(what string, sys int, got evalOutput) error {
	if err := sameBytes(what+" reports", got.reports, e.ref[sys].reports); err != nil {
		return err
	}
	return sameBytes(what+" verdicts", got.verdicts, e.ref[sys].verdicts)
}

// check compares one operation's output with the set-up sweep's.
func (e *evalSweep) check(sys int, out evalOutput) error {
	e.ops++
	if e.mutate != nil {
		e.mutate(e.ops, &out)
	}
	return e.compare(fmt.Sprintf("eval-sweep op %d (%s)", e.ops, e.sys[sys].Name()), sys, out)
}

func (e *evalSweep) op(sys int, tr *tracer) (opRecord, error) {
	if tr != nil {
		return e.tracedOp(sys, tr)
	}
	w := e.sys[sys]
	t0 := time.Now()
	res, err := fcatch.Detect(w, e.options(e.seed))
	if err != nil {
		return opRecord{}, fmt.Errorf("eval-sweep %s: detect: %w", w.Name(), err)
	}
	detected := time.Since(t0)
	outs := fcatch.Trigger(w, res)
	total := time.Since(t0)
	if err := e.check(sys, evalOutput{renderReports(res), renderVerdicts(outs)}); err != nil {
		return opRecord{}, err
	}
	return opRecord{total: total, detect: detected, runs: e.runs[sys], failures: trueBugs(outs)}, nil
}

// tracedOp is the same operation composed from the modules' public
// functions, each call in a span: core.Observe (its sim runs as child
// spans, from the program's own phase timings), hb.New on both traces,
// both detectors, compound pairing when there are several windows, and one
// inject.Trigger per report over the same two-way fan-out fcatch.Trigger
// uses. The output must equal the untraced operation's.
func (e *evalSweep) tracedOp(sys int, tr *tracer) (opRecord, error) {
	w := e.sys[sys]
	opts := e.options(e.seed)
	reg := obs.New()
	opts.Metrics = reg
	root := tr.begin(rootSpan, -1)
	t0 := time.Now()

	sp := tr.begin("core.Observe", root)
	ob, err := core.Observe(w, opts)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return opRecord{}, fmt.Errorf("eval-sweep %s: observe: %w", w.Name(), err)
	}
	snap := reg.Snapshot()
	simNs := snap.Spans["core/observe/fault-free"].TotalNs + snap.Spans["core/observe/faulty-attempt"].TotalNs
	at := tr.startOf(sp)
	tr.add("sim.Run", sp, at, at+time.Duration(simNs))

	sp = tr.begin("hb.New", root)
	gf, gy := hb.New(ob.FaultFree), hb.New(ob.Faulty)
	tr.end(sp)

	// The detection half of core.Detect, call for call.
	dopts := opts.Detect
	dopts.CrashedPIDs = ob.CrashedPIDs
	for _, f := range ob.FaultFirings {
		dopts.Firings = append(dopts.Firings, detect.FaultFiring{
			Index: f.Index, Action: f.Action, Step: f.Step,
			Site: f.Site, Occurrence: f.Occurrence, When: f.When, Victim: f.Victim,
		})
	}
	dopts.Windows = detect.ObservationWindows(ob.Faulty, dopts)
	res := &core.Result{Workload: w.Name(), Options: opts, Observation: ob, Windows: dopts.Windows}
	parallel.ForEach(parallelism, 2, func(i int) {
		if i == 0 {
			sp := tr.begin("detect.DetectRegularOpts", root)
			res.Regular = detect.DetectRegularOpts(gf, w.Name(), dopts)
			tr.end(sp)
			return
		}
		sp := tr.begin("detect.DetectRecoveryOpts", root)
		res.Recovery = detect.DetectRecoveryOpts(gf, gy, w.Name(), dopts)
		tr.end(sp)
	})
	res.Reports = append(res.Reports, res.Regular.Reports...)
	res.Reports = append(res.Reports, res.Recovery.Reports...)
	res.Reports = detect.Dedup(res.Reports)
	if len(res.Windows) > 1 {
		sp := tr.begin("detect.DetectCompound", root)
		res.Compound = detect.DetectCompound(gy, res.Windows, w.Name())
		tr.end(sp)
	}
	detected := time.Since(t0)

	tg := inject.NewTriggerer(w, opts.Seed)
	outs := make([]*fcatch.TriggerOutcome, len(res.Reports))
	parallel.ForEach(parallelism, len(res.Reports), func(i int) {
		sp := tr.begin("inject.Trigger", root)
		outs[i] = tg.Trigger(res.Reports[i])
		tr.end(sp)
	})
	total := time.Since(t0)
	tr.end(root)

	e.stats.ops++
	e.stats.attempts += observationRuns(snap)
	e.stats.records += ob.FaultFree.Len() + ob.Faulty.Len()
	e.stats.reports += len(res.Reports)
	e.stats.triggered += len(outs)
	e.stats.trueBugs += trueBugs(outs)
	if e.last == nil {
		e.last = make([]*evalTrace, len(e.sys))
	}
	e.last[sys] = &evalTrace{res: res, gf: gf, gy: gy, dopt: dopts}

	if err := e.check(sys, evalOutput{renderReports(res), renderVerdicts(outs)}); err != nil {
		return opRecord{}, err
	}
	return opRecord{total: total, detect: detected, runs: e.runs[sys], failures: trueBugs(outs)}, nil
}

func (e *evalSweep) finish(*ledger) {}

func (e *evalSweep) extra(ops []opRecord, m metrics) {
	var detectMs, verdictMs []float64
	for _, o := range ops {
		detectMs = append(detectMs, ms(o.detect))
		verdictMs = append(verdictMs, ms(o.total))
	}
	m.set("detect_ms_p50", quantile(detectMs, 0.5), "ms")
	m.set("detect_ms_p90", quantile(detectMs, 0.9), "ms")
	m.set("verdict_ms_p50", quantile(verdictMs, 0.5), "ms")
	m.set("verdict_ms_p90", quantile(verdictMs, 0.9), "ms")
}

// layers derives the detection-pipeline metrics. Times are per pass (one
// operation per system); counts are per pass too.
func (e *evalSweep) layers(tr *tracer, led *ledger, lm metrics, notes *[]string) []simRun {
	n := float64(len(e.sys))
	if e.stats.ops == 0 {
		return nil
	}
	passes := float64(e.stats.ops) / n
	perPass := func(name string) float64 { return ms(tr.total(name)) / passes }
	lm.set("core.observe_ms", perPass("core.Observe"), "ms")
	lm.set("core.observe_attempts", float64(e.stats.attempts)/passes, "count")
	lm.set("hb.build_ms", perPass("hb.New"), "ms")
	lm.set("hb.records", float64(e.stats.records)/passes, "count")
	lm.set("detect.regular_ms", perPass("detect.DetectRegularOpts"), "ms")
	lm.set("detect.recovery_ms", perPass("detect.DetectRecoveryOpts"), "ms")
	if d := tr.durations("detect.DetectCompound"); len(d) > 0 {
		lm.set("detect.compound_ms", perPass("detect.DetectCompound"), "ms")
	} else {
		*notes = append(*notes, "detect.compound_ms absent: every observation injects one fault, so there is one hazard window and DetectCompound never runs")
	}
	trig := tr.durations("inject.Trigger")
	lm.set("inject.trigger_ms_p50", quantile(trig, 0.5), "ms")
	lm.set("inject.trigger_ms_p90", quantile(trig, 0.9), "ms")
	lm.set("inject.true_bug_ratio", ratio(float64(e.stats.trueBugs), float64(e.stats.triggered)), "ratio")

	// Candidates come from the detectors' explain trail (one decision per
	// candidate), re-run on the last traced graphs outside any timed span.
	var candidates, reports int
	var runs []simRun
	for _, t := range e.last {
		if t == nil {
			continue
		}
		d := t.dopt
		d.Explain = true
		w := t.res.Workload
		candidates += len(detect.DetectRegularOpts(t.gf, w, d).Decisions)
		candidates += len(detect.DetectRecoveryOpts(t.gf, t.gy, w, d).Decisions)
		reports += len(t.res.Reports)
		runs = append(runs, e.passRuns(t.res)...)
	}
	lm.set("detect.candidates", float64(candidates), "count")
	lm.set("detect.report_ratio", ratio(float64(reports), float64(candidates)), "ratio")
	return runs
}

// passRuns lists one system's sim runs in a pass: the fault-free
// observation and every trigger replay, configured as core and inject
// configure them. Only the observation is paired with an untraced twin:
// that pair is Table 4's Trace vs Base, while a hung replay's untraced twin
// spends its tick budget on more scheduler steps and is not the same run.
func (e *evalSweep) passRuns(res *core.Result) []simRun {
	var w core.Workload
	for _, s := range e.sys {
		if s.Name() == res.Workload {
			w = s
		}
	}
	runs := []simRun{{w: w, seed: e.seed, traced: true, tick: 1, pair: true}}
	for _, rep := range res.Reports {
		if rep.Type == detect.CrashRegular {
			if rep.WPrime == nil {
				continue
			}
			for _, act := range sim.ActionNames() {
				runs = append(runs, simRun{w: w, seed: e.seed, traced: true, tick: 1, discard: true,
					events: []sim.FaultSpec{{Site: rep.WPrime.Site, Occurrence: rep.WPrime.Occurrence,
						When: sim.WhenBefore, Action: act}}})
			}
			continue
		}
		runs = append(runs, simRun{w: w, seed: e.seed, traced: true, tick: 1, discard: true,
			events: inject.TriggerScenario(rep, nil), restart: w.RestartRoles()})
	}
	return runs
}

func names(ws []core.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name()
	}
	return out
}
