package main

import (
	"fmt"
	"time"

	"fcatch/internal/campaign"
	"fcatch/internal/core"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// simRun describes one simulator run of a workload pass well enough to
// replay it directly through sim.NewCluster, in the mode the workload runs
// it (traced or not) or in the other one.
type simRun struct {
	w       core.Workload
	seed    int64
	events  []sim.FaultSpec // nil: fault-free
	restart map[string]int64
	traced  bool  // the workload traces this run
	tick    int64 // TraceTickCost when traced
	discard bool  // traced records are streamed and dropped, not kept
	// pair makes the run eligible for the other-mode twin replay.
	pair bool
	// class is the campaign outcome class the workload recorded for this
	// run ("" = not recorded); a replay that disagrees is reported.
	class string
}

type replay struct {
	steps   int64
	elapsed time.Duration
	budget  bool
	class   string
}

func (r simRun) exec(traced bool) replay {
	cfg := sim.Config{Seed: r.seed}
	if r.events != nil {
		cfg.Plan = sim.NewScenarioPlan(r.events, r.restart)
	}
	if traced {
		cfg.Tracing = sim.TraceSelective
		cfg.TraceTickCost = r.tick
		if r.discard {
			cfg.TraceDiscard = true
			cfg.OnTraceWindow = func(*trace.Trace, []trace.Record) {}
		}
	}
	r.w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	r.w.Configure(c)
	out := c.Run()
	return replay{steps: out.Steps, elapsed: out.Elapsed, budget: out.StepBudgetHit,
		class: outcomeClass(out, r.w.Check(c, out))}
}

// outcomeClass is the campaign engine's outcome classification.
func outcomeClass(out *sim.Outcome, checkErr error) string {
	switch {
	case len(out.UncaughtExceptions) > 0:
		return campaign.OutcomeException
	case len(out.FatalLogs) > 0:
		return campaign.OutcomeFatal
	case !out.Completed:
		return campaign.OutcomeHang
	case checkErr != nil:
		return campaign.OutcomeCheck
	}
	return campaign.OutcomeOK
}

// twinSample bounds how many runs the probe also replays in the other mode.
const twinSample = 150

// simProbe replays one pass's sim runs. Every run replays in its own mode,
// which makes sim.budget_step_share exact; a stride sample of the paired
// runs also replays in the other mode, which gives both ns/step figures and
// the traced ÷ untraced time of the same runs. Steps are the simulator's
// logical clock (Outcome.Steps), which counts TraceTickCost ticks too.
func simProbe(runs []simRun, lm metrics, notes *[]string) {
	own := parallel.Map(parallelism, len(runs), func(i int) replay { return runs[i].exec(runs[i].traced) })
	var pairs []int
	for i, r := range runs {
		if r.pair {
			pairs = append(pairs, i)
		}
	}
	stride := max(1, (len(pairs)+twinSample-1)/twinSample)
	var idx []int
	for j := 0; j < len(pairs); j += stride {
		idx = append(idx, pairs[j])
	}
	twin := parallel.Map(parallelism, len(idx), func(j int) replay {
		r := runs[idx[j]]
		return r.exec(!r.traced)
	})

	var steps, budgetSteps int64
	var tNs, tSteps, uNs, uSteps float64
	mismatch := 0
	for i, r := range own {
		steps += r.steps
		if r.budget {
			budgetSteps += r.steps
		}
		if runs[i].class != "" && runs[i].class != r.class {
			mismatch++
		}
		if runs[i].traced {
			tNs, tSteps = tNs+float64(r.elapsed), tSteps+float64(r.steps)
		} else {
			uNs, uSteps = uNs+float64(r.elapsed), uSteps+float64(r.steps)
		}
	}
	var pairT, pairU float64
	for j, r := range twin {
		o := own[idx[j]]
		if runs[idx[j]].traced {
			uNs, uSteps = uNs+float64(r.elapsed), uSteps+float64(r.steps)
			pairT, pairU = pairT+float64(o.elapsed), pairU+float64(r.elapsed)
		} else {
			tNs, tSteps = tNs+float64(r.elapsed), tSteps+float64(r.steps)
			pairT, pairU = pairT+float64(r.elapsed), pairU+float64(o.elapsed)
		}
	}
	lm.set("sim.ns_per_step.traced", ratio(tNs, tSteps), "ns")
	lm.set("sim.ns_per_step.untraced", ratio(uNs, uSteps), "ns")
	lm.set("sim.trace_overhead_x", ratio(pairT, pairU), "x")
	lm.set("sim.budget_step_share", ratio(float64(budgetSteps), float64(steps)), "ratio")
	lm.set("sim.replayed_runs", float64(len(runs)), "count")
	if mismatch > 0 {
		*notes = append(*notes, fmt.Sprintf("sim replay: %d of %d runs replayed to a different outcome class than the workload recorded", mismatch, len(runs)))
	}
}
