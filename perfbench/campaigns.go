package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fcatch"
	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/dist"
	"fcatch/internal/obs"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// campaignBench drives one campaign per operation, cycling through its
// systems: the coverage-guided engine with composite scenarios on, in
// process (campaign-coverage) or through the distributed coordinator with
// in-process loopback workers (dist-coverage).
type campaignBench struct {
	name    string
	seed    int64
	want    []string // system names
	sys     []core.Workload
	cfg     campaign.Config
	dist    bool
	outputs [][]campaignOutput // per system, in operation order
	ops     int

	// traced-run state
	reg     *obs.Registry // dist: coordinator telemetry across traced ops
	timings []planTiming  // coverage: every traced run through ExecPlans
	last    []*campaign.Result

	mutate func(n int, corpus []byte) []byte
}

// campaignOutput is one operation's corpus, kept for the deferred checks.
type campaignOutput struct {
	op   int
	data []byte
}

// planTiming is one committed plan timed through campaign.ExecPlans.
type planTiming struct {
	w     core.Workload
	plan  campaign.Plan
	class string
	dur   time.Duration
}

func newCampaignCoverage(seed int64) bench {
	return &campaignBench{
		name: "campaign-coverage", seed: seed,
		want: []string{"CA1&2", "HB2", "MR1"},
		cfg: campaign.Config{Strategy: campaign.StrategyCoverage, Seed: seed, Budget: campaignBudget,
			Parallelism: parallelism, Scenarios: campaign.ScenarioNames()},
	}
}

func newDistCoverage(seed int64) bench {
	b := newCampaignCoverage(seed).(*campaignBench)
	// CA1&2, the longest campaign, is left out so a run holds more passes.
	b.name, b.dist, b.want = "dist-coverage", true, []string{"HB2", "MR1"}
	return b
}

func (b *campaignBench) systems() []core.Workload { return b.sys }

func (b *campaignBench) config() map[string]any {
	cfg := map[string]any{
		"systems": b.want, "strategy": b.cfg.Strategy, "budget": b.cfg.Budget,
		"scenarios": b.cfg.Scenarios,
	}
	if b.dist {
		cfg["workers"], cfg["worker_parallelism"], cfg["lease_size"] = distWorkers, 1, distLeaseSize
	} else {
		cfg["parallelism"] = b.cfg.Parallelism
	}
	return cfg
}

func (b *campaignBench) distOptions(workers int, reg *obs.Registry) dist.Options {
	return dist.Options{Workers: workers, WorkerParallelism: 1, LeaseSize: distLeaseSize, Metrics: reg}
}

// setup builds the systems and checks their seed-1 40-run coverage corpora
// against the goldens, which also warms the engine up. dist-coverage runs
// them through the coordinator, so the goldens pin the wire path too. The
// set-up work does not depend on the workload seed.
func (b *campaignBench) setup(led *ledger) error {
	b.sys = b.sys[:0]
	for _, n := range b.want {
		w, err := fcatch.ByName(n)
		if err != nil {
			return err
		}
		b.sys = append(b.sys, w)
	}
	b.outputs = make([][]campaignOutput, len(b.sys))
	b.last = make([]*campaign.Result, len(b.sys))
	for _, w := range b.sys {
		cfg := campaign.Config{Strategy: campaign.StrategyCoverage, Seed: goldenSeed,
			Budget: goldenCorpusRuns, Parallelism: parallelism}
		res, err := b.runCampaign(w, cfg)
		if err != nil {
			led.op(fmt.Errorf("golden corpus %s: %w", w.Name(), err))
			continue
		}
		data, err := corpusBytes(res.Corpus)
		if err == nil {
			err = checkGolden("golden corpus "+w.Name(), data, goldenPath(w.Name(), "corpus.json"))
		}
		led.op(err)
	}
	return nil
}

// runCampaign runs one untraced campaign, in process or through the
// coordinator.
func (b *campaignBench) runCampaign(w core.Workload, cfg campaign.Config) (*campaign.Result, error) {
	if b.dist {
		return fcatch.DistributedCampaign(context.Background(), w, cfg, b.distOptions(distWorkers, nil))
	}
	return fcatch.Campaign(w, cfg)
}

func (b *campaignBench) op(sys int, tr *tracer) (opRecord, error) {
	w := b.sys[sys]
	cfg := b.cfg
	t0 := time.Now()
	var res *campaign.Result
	var err error
	if tr != nil {
		res, err = b.tracedCampaign(w, cfg, tr)
	} else {
		res, err = b.runCampaign(w, cfg)
	}
	total := time.Since(t0)
	if err != nil {
		return opRecord{}, fmt.Errorf("%s %s: %w", b.name, w.Name(), err)
	}
	data, err := corpusBytes(res.Corpus)
	if err != nil {
		return opRecord{}, fmt.Errorf("%s %s: %w", b.name, w.Name(), err)
	}
	b.ops++
	if b.mutate != nil {
		data = b.mutate(b.ops, data)
	}
	b.outputs[sys] = append(b.outputs[sys], campaignOutput{op: b.ops, data: data})
	if tr != nil {
		b.last[sys] = res
	}
	return opRecord{total: total, runs: res.Runs, failures: res.UniqueFailures()}, nil
}

// tracedCampaign runs the same campaign with spans: campaign.ResumeWith
// (or dist.Serve) as the operation's layer span; for the in-process engine
// the executor runs every plan through campaign.ExecPlans in its own span,
// and the engine's preparation up to its first batch is its own span.
func (b *campaignBench) tracedCampaign(w core.Workload, cfg campaign.Config, tr *tracer) (*campaign.Result, error) {
	root := tr.begin(rootSpan, -1)
	defer tr.end(root)
	if b.dist {
		if b.reg == nil {
			b.reg = obs.New()
		}
		sp := tr.begin("dist.Serve", root)
		defer tr.end(sp)
		return dist.Serve(context.Background(), w, cfg, nil, b.distOptions(distWorkers, b.reg))
	}
	sp := tr.begin("campaign.ResumeWith", root)
	defer tr.end(sp)
	ex := &spanExecutor{w: w, seed: cfg.Seed, traced: campaign.StrategyTraced(cfg.Strategy),
		tr: tr, parent: sp, prepStart: tr.startOf(sp)}
	res, err := campaign.ResumeWith(context.Background(), w, cfg, nil, ex)
	b.timings = append(b.timings, ex.timings...)
	return res, err
}

// spanExecutor is a campaign.Executor that runs each plan through
// campaign.ExecPlans on its own, in a span, over the same two-way fan-out
// as the engine's local executor, timing every plan.
type spanExecutor struct {
	w         core.Workload
	seed      int64
	traced    bool
	tr        *tracer
	parent    int
	prepStart time.Duration
	prepared  bool
	mu        sync.Mutex
	timings   []planTiming
}

func (x *spanExecutor) ExecuteBatch(ctx context.Context, plans []campaign.Plan) ([]campaign.RunResult, error) {
	if !x.prepared {
		x.prepared = true
		x.tr.add("campaign.prepare", x.parent, x.prepStart, x.tr.now())
	}
	return parallel.MapErrCtx(ctx, parallelism, len(plans), func(i int) (campaign.RunResult, error) {
		sp := x.tr.begin("campaign.ExecPlans", x.parent)
		t0 := time.Now()
		rs, err := campaign.ExecPlans(ctx, x.w, x.seed, x.traced, 1, plans[i:i+1])
		d := time.Since(t0)
		x.tr.end(sp)
		if err != nil {
			return campaign.RunResult{}, err
		}
		x.mu.Lock()
		x.timings = append(x.timings, planTiming{w: x.w, plan: plans[i], class: rs[0].Sig.Outcome, dur: d})
		x.mu.Unlock()
		return rs[0], nil
	})
}

// finish checks every operation's corpus. dist-coverage: byte-equal to the
// local engine's corpus for the same configuration. campaign-coverage:
// byte-equal to the other operations on the same system (the majority is
// the reference; a tie fails them all), and an evenly spread sample of the
// entries, re-executed through campaign.ExecPlans, must reproduce their
// signatures and verdicts. The seed-1 goldens of set-up pin whole corpora.
func (b *campaignBench) finish(led *ledger) {
	for s, outs := range b.outputs {
		if len(outs) == 0 {
			continue
		}
		w := b.sys[s]
		if b.dist {
			want, err := b.localCorpus(w)
			for _, o := range outs {
				if err == nil {
					err = sameBytes(fmt.Sprintf("dist-coverage op %d (%s) corpus vs local engine", o.op, w.Name()), o.data, want)
				}
				if err != nil {
					led.fail(fmt.Errorf("dist-coverage op %d (%s): %w", o.op, w.Name(), err))
				}
			}
			continue
		}
		counts := map[[32]byte]int{}
		for _, o := range outs {
			counts[digest(o.data)]++
		}
		var ref [32]byte
		best, tie := 0, false
		for d, c := range counts {
			switch {
			case c > best:
				ref, best, tie = d, c, false
			case c == best:
				tie = true
			}
		}
		checked := map[[32]byte]bool{}
		for _, o := range outs {
			d := digest(o.data)
			if tie || d != ref {
				led.fail(fmt.Errorf("campaign-coverage op %d (%s): corpus differs from the other operations on the same system", o.op, w.Name()))
				continue
			}
			if checked[d] {
				continue
			}
			checked[d] = true
			if err := b.spotCheck(w, o); err != nil {
				led.fail(err)
			}
		}
	}
}

// localCorpus is the local engine's corpus for the workload configuration.
func (b *campaignBench) localCorpus(w core.Workload) ([]byte, error) {
	cfg := b.cfg
	cfg.Parallelism = parallelism
	res, err := campaign.Run(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	return corpusBytes(res.Corpus)
}

// spotSample is how many corpus entries each spot check re-executes.
const spotSample = 24

// spotCheck re-executes an evenly spread sample of a corpus's entries and
// compares their signatures and verdicts with the recorded ones.
func (b *campaignBench) spotCheck(w core.Workload, o campaignOutput) error {
	var cor campaign.Corpus
	if err := json.Unmarshal(o.data, &cor); err != nil {
		return fmt.Errorf("campaign-coverage op %d (%s): corpus does not parse: %w", o.op, w.Name(), err)
	}
	if len(cor.Entries) == 0 {
		return fmt.Errorf("campaign-coverage op %d (%s): empty corpus", o.op, w.Name())
	}
	stride := max(1, len(cor.Entries)/spotSample)
	var idx []int
	var plans []campaign.Plan
	for i := 0; i < len(cor.Entries); i += stride {
		idx = append(idx, i)
		plans = append(plans, cor.Entries[i].Plan)
	}
	rs, err := campaign.ExecPlans(context.Background(), w, b.seed, campaign.StrategyTraced(b.cfg.Strategy), parallelism, plans)
	if err != nil {
		return fmt.Errorf("campaign-coverage op %d (%s): spot check: %w", o.op, w.Name(), err)
	}
	for j, i := range idx {
		e := cor.Entries[i]
		if rs[j].Sig != e.Sig || rs[j].Verdict != e.Verdict {
			return fmt.Errorf("campaign-coverage op %d (%s): entry %d (%s) re-executes to %+v/%s, corpus has %+v/%s",
				o.op, w.Name(), i, e.Plan.Key(), rs[j].Sig, rs[j].Verdict, e.Sig, e.Verdict)
		}
	}
	return nil
}

func (b *campaignBench) extra(ops []opRecord, m metrics) {}

// outcomeClasses lists the campaign outcome classes in report order.
var outcomeClasses = []string{campaign.OutcomeOK, campaign.OutcomeHang, campaign.OutcomeException,
	campaign.OutcomeFatal, campaign.OutcomeCheck}

// classMetrics groups per-plan timings by outcome class: median run time,
// share of run time and share of runs.
func classMetrics(ts []planTiming, lm metrics) {
	var all time.Duration
	byClass := map[string][]float64{}
	sum := map[string]time.Duration{}
	for _, t := range ts {
		all += t.dur
		byClass[t.class] = append(byClass[t.class], ms(t.dur))
		sum[t.class] += t.dur
	}
	for _, c := range outcomeClasses {
		lm.set("campaign.run_ms."+c, median(byClass[c]), "ms")
		lm.set("campaign.time_share."+c, ratio(float64(sum[c]), float64(all)), "ratio")
		lm.set("campaign.run_share."+c, ratio(float64(len(byClass[c])), float64(len(ts))), "ratio")
	}
}

// layers derives the campaign and dist metrics from the traced operations
// plus probes over the last traced pass's committed plans.
func (b *campaignBench) layers(tr *tracer, led *ledger, lm metrics, notes *[]string) []simRun {
	ctx := context.Background()
	traced := campaign.StrategyTraced(b.cfg.Strategy)
	var runs []simRun
	var novel, committed int
	type sysPlans struct {
		w     core.Workload
		plans []campaign.Plan
	}
	var pass []sysPlans
	for s, res := range b.last {
		if res == nil {
			continue
		}
		w := b.sys[s]
		novel += res.NovelBehaviors
		committed += res.Runs
		sp := sysPlans{w: w}
		for _, e := range res.Corpus.Entries {
			sp.plans = append(sp.plans, e.Plan)
			events, restart := lowerPlan(e.Plan, w.CrashTarget(), w.RestartRoles())
			runs = append(runs, simRun{w: w, seed: b.seed, events: events, restart: restart,
				traced: traced, discard: true, pair: true, class: e.Sig.Outcome})
		}
		pass = append(pass, sp)
	}
	lm.set("campaign.novel_ratio", ratio(float64(novel), float64(committed)), "ratio")
	lm.set("campaign.space_ms", b.spaceProbe(), "ms")

	if !b.dist {
		passes := float64(len(tr.durations(rootSpan))) / float64(len(b.sys))
		lm.set("campaign.prepare_ms", ms(tr.total("campaign.prepare"))/passes, "ms")
		classMetrics(b.timings, lm)
		// The same plans through ExecPlans traced and untraced: a stride
		// sample of the committed runs, each mode on the same fan-out.
		stride := max(1, len(b.timings)/twinSample)
		bySys := map[core.Workload][]campaign.Plan{}
		for i := 0; i < len(b.timings); i += stride {
			t := b.timings[i]
			bySys[t.w] = append(bySys[t.w], t.plan)
		}
		var tSum, uSum time.Duration
		for _, w := range b.sys {
			for _, traced := range []bool{true, false} {
				ts, err := timePlans(ctx, w, b.seed, traced, bySys[w])
				if err != nil {
					*notes = append(*notes, fmt.Sprintf("coverage overhead probe %s: %v", w.Name(), err))
				}
				for _, t := range ts {
					if traced {
						tSum += t.dur
					} else {
						uSum += t.dur
					}
				}
			}
		}
		lm.set("campaign.coverage_overhead_x", ratio(float64(tSum), float64(uSum)), "x")
		return runs
	}

	// dist-coverage: the same plans executed locally through ExecPlans, one
	// plan per call on the same two-way fan-out, give the per-class run
	// times and the local wall time dist.overhead_x divides by.
	var local time.Duration
	var ts []planTiming
	for _, p := range pass {
		t0 := time.Now()
		pt, err := timePlans(ctx, p.w, b.seed, traced, p.plans)
		local += time.Since(t0)
		if err != nil {
			*notes = append(*notes, fmt.Sprintf("dist overhead probe %s: %v", p.w.Name(), err))
		}
		ts = append(ts, pt...)
	}
	classMetrics(ts, lm)
	// Traced operations cycle through the systems in order, so the i-th
	// dist.Serve span ran system i mod n.
	n := len(b.sys)
	perSys := make([][]float64, n)
	for i, d := range tr.durations("dist.Serve") {
		perSys[i%n] = append(perSys[i%n], d)
	}
	var perPass float64
	fast := 0
	for s := range perSys {
		perPass += median(perSys[s])
		if median(perSys[s]) < median(perSys[fast]) {
			fast = s
		}
	}
	lm.set("dist.overhead_x", ratio(perPass, ms(local)), "x")
	// Scaling is measured on the system with the shortest operation: the
	// same campaign with one worker instead of two.
	t0 := time.Now()
	if _, err := dist.Serve(ctx, b.sys[fast], b.cfg, nil, b.distOptions(1, nil)); err != nil {
		*notes = append(*notes, fmt.Sprintf("dist scaling probe %s: %v", b.sys[fast].Name(), err))
	}
	lm.set("dist.scaling_x", ratio(ms(time.Since(t0)), median(perSys[fast])), "x")
	snap := b.reg.Snapshot()
	lat := snap.Histograms["dist/lease-latency-ns"]
	lm.set("dist.lease_ms_p50", histQuantile(lat, 0.5)/1e6, "ms")
	lm.set("dist.lease_ms_p90", histQuantile(lat, 0.9)/1e6, "ms")
	lm.set("dist.requeues", float64(snap.Counters["dist/leases/requeued"]), "count")
	return runs
}

// timePlans runs each plan through campaign.ExecPlans on its own, over the
// two-way fan-out, and times it.
func timePlans(ctx context.Context, w core.Workload, seed int64, traced bool, plans []campaign.Plan) ([]planTiming, error) {
	return parallel.MapErrCtx(ctx, parallelism, len(plans), func(i int) (planTiming, error) {
		t0 := time.Now()
		rs, err := campaign.ExecPlans(ctx, w, seed, traced, 1, plans[i:i+1])
		if err != nil {
			return planTiming{}, err
		}
		return planTiming{w: w, plan: plans[i], class: rs[0].Sig.Outcome, dur: time.Since(t0)}, nil
	})
}

// spaceProbe times what the engine does before its first batch on a site
// strategy — a traced fault-free run plus campaign.NewSpace — per pass:
// the per-system median of three repetitions, summed.
func (b *campaignBench) spaceProbe() float64 {
	var total float64
	for _, w := range b.sys {
		base := simRun{w: w, seed: b.seed}.exec(false)
		var reps []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			cfg := sim.Config{Seed: b.seed, Tracing: sim.TraceSelective}
			w.Tune(&cfg)
			c := sim.NewCluster(cfg)
			w.Configure(c)
			c.Run()
			campaign.NewSpace(c.Trace(), base.steps, w.CrashTarget(), b.cfg.MaxOccurrence)
			reps = append(reps, ms(time.Since(t0)))
		}
		total += median(reps)
	}
	return total
}

// lowerPlan lowers a campaign plan to scenario events and restart policy
// exactly as the engine does before running it: step crashes with no
// target aim at the crash target, and only scenarios that crash a node
// carry the restart map.
func lowerPlan(p campaign.Plan, target string, restart map[string]int64) ([]sim.FaultSpec, map[string]int64) {
	specs := p.Events()
	withRestart := false
	for i := range specs {
		s := &specs[i]
		if s.Site == "" {
			if s.Target == "" && s.Delay == 0 {
				s.Target = target
			}
			withRestart = true
		} else if s.Action == campaign.ActionNodeCrash {
			withRestart = true
		}
	}
	if !withRestart {
		restart = nil
	}
	return specs, restart
}

// histQuantile estimates a quantile from a power-of-two histogram snapshot
// (buckets ascending) by interpolating inside the bucket that holds it
// (bucket i spans [2^(i-1), 2^i - 1]), so it resolves to within a factor of
// two.
func histQuantile(h obs.HistStat, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	for _, bk := range h.Buckets {
		hi := float64(bk.Le)
		lo := (hi + 1) / 2
		if seen+float64(bk.Count) >= target {
			frac := (target - seen) / float64(bk.Count)
			return lo + frac*(hi-lo)
		}
		seen += float64(bk.Count)
	}
	return float64(h.Buckets[len(h.Buckets)-1].Le)
}
