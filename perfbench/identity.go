package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// identity stamps every result with what produced it. The host fields
// (go_version … num_cpu) must match for two results to be compared: a
// comparison across hosts measures hardware, not code.
type identity struct {
	GoVersion    string         `json:"go_version"`
	GOOS         string         `json:"goos"`
	GOARCH       string         `json:"goarch"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	Config       map[string]any `json:"config"`
}

func newIdentity(workload string, seed int64, window time.Duration, traced bool, cfg map[string]any) identity {
	return identity{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Commit:       vcsCommit(),
		SourceDigest: sourceDigest(repoRoot()),
		Workload:     workload,
		Seed:         seed,
		Seconds:      window.Seconds(),
		Traced:       traced,
		Config:       cfg,
	}
}

// vcsCommit is the revision the binary was built from, when the build saw a
// git checkout ("unknown" otherwise; source_digest still identifies the code).
func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// repoRoot finds the FCatch module root: the working directory when the
// benchmark runs from a checkout's root, its parent when `go test` runs it
// from the benchmark's own directory.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "testdata", "golden")); err == nil {
			return dir
		}
	}
	return "."
}

// sourceDigest hashes every Go source, go.mod and testdata file under root,
// so results from a checkout without git history still name their code.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "node_modules") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" || strings.Contains(rel, "testdata"+string(filepath.Separator)) {
			paths = append(paths, rel)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, rel := range paths {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostKey is the part of an identity two comparable results share.
func hostKey(id identity) map[string]any {
	return map[string]any{
		"go_version": id.GoVersion, "goos": id.GOOS, "goarch": id.GOARCH,
		"gomaxprocs": id.GOMAXPROCS, "num_cpu": id.NumCPU,
		"workload": id.Workload, "seconds": id.Seconds, "traced": id.Traced,
		"config": fmt.Sprint(id.Config),
	}
}

// readReport extracts the report line from a saved benchmark output.
func readReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"report"`) {
			continue
		}
		var wrap struct {
			Report report `json:"report"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &wrap.Report, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: no report line", path)
}

// compareOutputs prints the metric deltas between two saved outputs, and
// refuses (exit 2) when their host fields or workload configuration differ.
func compareOutputs(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: -compare needs two saved outputs: old new")
		return 2
	}
	old, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cur, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if diff := hostDiff(old.Identity, cur.Identity); diff != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hosts or configurations: %s\n", diff)
		return 2
	}
	fmt.Fprintf(stdout, "%-36s %14s %14s %9s\n", "metric", "old", "new", "change")
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, ok := old.Metrics[n]
		if !ok {
			continue
		}
		c := cur.Metrics[n]
		change := "n/a"
		if o.Value != 0 && !math.IsNaN(o.Value) {
			change = fmt.Sprintf("%+.1f%%", 100*(c.Value-o.Value)/math.Abs(o.Value))
		}
		fmt.Fprintf(stdout, "%-36s %14.4f %14.4f %9s %s\n", n, o.Value, c.Value, change, c.Unit)
	}
	return 0
}

// hostDiff names the first differing host or configuration field ("" when
// the two identities are comparable). Seeds may differ.
func hostDiff(a, b identity) string {
	ka, kb := hostKey(a), hostKey(b)
	keys := make([]string, 0, len(ka))
	for k := range ka {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(ka[k], kb[k]) {
			return fmt.Sprintf("%s %v vs %v", k, ka[k], kb[k])
		}
	}
	return ""
}
