// Command perfbench is FCatch's end-to-end benchmark. It drives one of three
// closed-loop workloads over the public pipeline — eval-sweep (detect and
// trigger every Table 1 system), campaign-coverage (coverage-guided
// campaigns with composite scenarios) and dist-coverage (two of those
// campaigns through the distributed coordinator) — checks every output,
// and prints one JSON result line. With -trace 1 it instead runs the
// workload with span tracing around each module's public functions and
// reports per-layer metrics. README.md documents the workloads and every
// metric.
//
//	go run . -workload eval-sweep -seed 1 -seconds 20 -trace 0
//	go run . -compare old.out new.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// procStart anchors the first set-up measurement at process start.
var procStart = time.Now()

// Workload configuration shared by every workload: the internal fan-out is
// at most the two cores of the reference host.
const (
	parallelism      = 2
	distWorkers      = 2
	distLeaseSize    = 8
	campaignBudget   = 400
	untracedSetups   = 3
	tracedSetups     = 1
	goldenSeed       = 1
	goldenCorpusRuns = 40
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to drive: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "length of the measurement window")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a span-traced run")
	compare := fs.Bool("compare", false, "compare two saved outputs given as arguments: old new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareOutputs(fs.Args(), stdout, stderr)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b, err := newBench(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	var out *outcome
	if *traceFlag == 1 {
		out, err = runTraced(b, window)
	} else {
		out, err = runUntraced(b, window)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, note := range out.led.notes {
		fmt.Fprintln(stderr, "perfbench: failed operation:", note)
	}
	rep := out.report
	rep.Identity = newIdentity(*name, *seed, window, *traceFlag == 1, b.config())
	rep.Attempted, rep.Failed = out.led.attempted, out.led.failed
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	res := result{
		Correct:   out.led.failed == 0,
		Attempted: out.led.attempted,
		Failed:    out.led.failed,
		Metrics:   out.metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to measurement; JSON output is key-sorted.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the last line of a run, the line every consumer parses.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the line before the result: the identity stamp, every metric
// under its documented name (including workload-specific ones the result
// line does not carry), per-layer attribution and the failure notes.
type report struct {
	Identity  identity           `json:"identity"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   metrics            `json:"metrics"`
	Layers    metrics            `json:"layers,omitempty"`
	SelfMs    map[string]float64 `json:"self_ms,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// outcome is what one run hands back to main for printing.
type outcome struct {
	led     *ledger
	metrics metrics
	report  report
}

// ledger counts operations and failed operations. Every timed operation and
// every set-up golden check is one operation; an operation fails when a
// call returns an error or its output check fails. Failures are recorded,
// never skipped, and never abort the run.
type ledger struct {
	attempted int
	failed    int
	notes     []string
}

// op records one operation: nil err is a success.
func (l *ledger) op(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		l.notes = append(l.notes, err.Error())
	}
}

// fail marks an already-counted operation failed by a deferred check.
func (l *ledger) fail(err error) {
	l.failed++
	l.notes = append(l.notes, err.Error())
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadCtors))
	for n := range workloadCtors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newBench(name string, seed int64) (bench, error) {
	ctor, ok := workloadCtors[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	return ctor(seed), nil
}

// workloadCtors maps each workload name to its constructor.
var workloadCtors = map[string]func(seed int64) bench{
	"eval-sweep":        newEvalSweep,
	"campaign-coverage": newCampaignCoverage,
	"dist-coverage":     newDistCoverage,
}
