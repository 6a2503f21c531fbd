package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fcatch/internal/apps/mapreduce"
	"fcatch/internal/apps/toy"
	"fcatch/internal/core"
	"fcatch/internal/parallel"
	"fcatch/internal/sim"
)

// randomCounts is the part of a Result the Section 8.3 baseline reports.
type randomCounts struct {
	Workload    string
	Runs        int
	FailureRuns int
	Failures    map[string]int
}

// referenceRandomCampaign is the random-injection baseline as it was written
// before the campaign engine existed, kept verbatim (modulo the hoisted
// signature helpers) as the parity oracle: the engine's `random` strategy
// must reproduce its counts byte for byte.
func referenceRandomCampaign(w core.Workload, runs int, seed int64, parallelism int) (*randomCounts, error) {
	cfg := sim.Config{Seed: seed, Tracing: sim.TraceOff}
	w.Tune(&cfg)
	c := sim.NewCluster(cfg)
	w.Configure(c)
	base := c.Run()
	if err := w.Check(c, base); err != nil {
		return nil, fmt.Errorf("inject: fault-free run of %s incorrect: %w", w.Name(), err)
	}

	rng := rand.New(rand.NewSource(seed * 7919))
	steps := make([]int64, runs)
	for i := range steps {
		steps[i] = 1 + rng.Int63n(base.Steps)
	}

	sigs := parallel.Map(parallelism, runs, func(i int) string {
		plan := sim.NewObservationPlan(w.CrashTarget(), steps[i], w.RestartRoles())
		rcfg := sim.Config{Seed: seed, Tracing: sim.TraceOff, Plan: plan}
		w.Tune(&rcfg)
		rc := sim.NewCluster(rcfg)
		w.Configure(rc)
		out := rc.Run()
		checkErr := w.Check(rc, out)
		if !out.Completed || len(out.FatalLogs) > 0 || len(out.UncaughtExceptions) > 0 || checkErr != nil {
			if sig := Symptom(out, checkErr); !ExpectedSymptom(w, sig) {
				return sig
			}
		}
		return ""
	})

	res := &randomCounts{Workload: w.Name(), Runs: runs, Failures: map[string]int{}}
	for _, sig := range sigs {
		if sig != "" {
			res.FailureRuns++
			res.Failures[sig]++
		}
	}
	return res, nil
}

// TestRandomCampaignMatchesReference pins the Section 8.3 baseline: a
// StrategyRandom campaign must equal the pre-engine implementation exactly —
// same failure runs, same signature multiset — at sequential and maximal
// parallelism.
func TestRandomCampaignMatchesReference(t *testing.T) {
	workloads := []core.Workload{toy.New(), mapreduce.NewMR1()}
	for _, w := range workloads {
		for _, par := range []int{1, 0} {
			want, err := referenceRandomCampaign(w, 60, 3, par)
			if err != nil {
				t.Fatalf("%s: reference: %v", w.Name(), err)
			}
			res, err := Run(w, Config{Strategy: StrategyRandom, Seed: 3, Budget: 60, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: engine: %v", w.Name(), err)
			}
			got := &randomCounts{Workload: res.Workload, Runs: res.Runs, FailureRuns: res.FailureRuns, Failures: res.Failures}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s (parallelism %d): engine diverges from reference:\n got: %+v\nwant: %+v",
					w.Name(), par, got, want)
			}
		}
	}
}

// TestResultSignaturesSorted: signatures come out by frequency, descending,
// ties broken lexicographically.
func TestResultSignaturesSorted(t *testing.T) {
	r := &Result{Failures: map[string]int{"b": 2, "a": 2, "c": 9}}
	got := r.Signatures()
	if len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("signatures = %v, want frequency desc then lexicographic", got)
	}
	if r.UniqueFailures() != 3 {
		t.Fatal("UniqueFailures wrong")
	}
}
