package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fcatch"
	"fcatch/internal/campaign"
)

// goldenName sanitizes a workload name for a golden file ("CA1&2" -> "CA1_2"),
// the naming testdata/golden uses.
func goldenName(wl string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, wl)
}

func goldenPath(wl, suffix string) string {
	return filepath.Join(repoRoot(), "testdata", "golden", goldenName(wl)+"."+suffix)
}

// renderReports renders a detection result exactly as the
// testdata/golden/<wl>.reports.txt files pin it.
func renderReports(res *fcatch.Result) []byte {
	var b strings.Builder
	ob := res.Observation
	fmt.Fprintf(&b, "workload=%s crash=%s step=%d records=%d+%d\n",
		res.Workload, ob.Faulty.CrashedPID, ob.CrashStep, ob.FaultFree.Len(), ob.Faulty.Len())
	fmt.Fprintf(&b, "pruned regular=%+v recovery=%+v\n", res.Regular.Pruned, res.Recovery.Pruned)
	for i, r := range res.Reports {
		wp := "-"
		if r.WPrime != nil {
			wp = fmt.Sprintf("%+v", *r.WPrime)
		}
		fmt.Fprintf(&b, "%2d. %s\n    W=%+v\n    R=%+v\n    W'=%s inFaulty=%v target=%s/%s res=%s class=%s\n",
			i+1, r, r.W, r.R, wp, r.WInFaultyRun, r.CrashTargetPID, r.CrashTargetRole, r.Resource, r.ResClass)
	}
	return []byte(b.String())
}

// renderVerdicts renders every trigger outcome: class, per-fault-type
// results and the observed failure.
func renderVerdicts(outs []*fcatch.TriggerOutcome) []byte {
	var b strings.Builder
	for i, o := range outs {
		fmt.Fprintf(&b, "%2d. %s class=%s by=%v kind=%s detail=%s\n",
			i+1, o.Report.Key(), o.Class, o.ByAction, o.FailureKind, o.Detail)
	}
	return []byte(b.String())
}

// corpusBytes is a corpus exactly as the golden files and Corpus.Save
// write it.
func corpusBytes(c *campaign.Corpus) ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// checkGolden compares output with a golden file byte for byte.
func checkGolden(what string, got []byte, path string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s: reading golden: %w", what, err)
	}
	return sameBytes(what+" vs "+filepath.Base(path), got, want)
}

// sameBytes reports the first differing line of two outputs.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Errorf("%s: output differs at line %d: got %q, want %q", what, i+1, clip(g), clip(w))
		}
	}
	return fmt.Errorf("%s: output differs", what)
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }
