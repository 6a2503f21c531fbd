package trace_test

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fcatch/internal/trace"
)

// recordData is the resolved, string-valued form of one Record.
type recordData struct {
	ID      trace.OpID
	TS      int64
	Machine string
	PID     string
	Thread  int
	Frame   trace.OpID
	Kind    trace.Kind
	Site    string
	Stack   []string
	Res     string
	Src     trace.OpID
	Aux     string
	Target  string
	Flags   uint32
	Causor  trace.OpID
	Taint   []trace.OpID
	Ctl     []trace.OpID
}

// resolve turns a record's symbols into strings.
func resolve(t *trace.Trace, r *trace.Record) recordData {
	return recordData{
		ID: r.ID, TS: r.TS, Machine: t.Str(r.Machine), PID: t.Str(r.PID),
		Thread: r.Thread, Frame: r.Frame, Kind: r.Kind, Site: t.Str(r.Site),
		Stack: t.StackLabels(r.Stack), Res: t.Str(r.Res), Src: r.Src,
		Aux: t.Str(r.Aux), Target: t.Str(r.Target), Flags: r.Flags,
		Causor: r.Causor, Taint: r.Taint, Ctl: r.Ctl,
	}
}

// semantic flattens a trace into its fully-resolved form (strings, not Syms)
// so traces can be compared even when their symbol tables assign different
// Syms.
type semantic struct {
	PIDs          []string
	CrashStep     int64
	CrashedPID    string
	BaselineNanos int64
	Records       []recordData
}

func flatten(t *trace.Trace) semantic {
	s := semantic{
		PIDs:          t.PIDs,
		CrashStep:     t.CrashStep,
		CrashedPID:    t.CrashedPID,
		BaselineNanos: t.BaselineNanos,
	}
	for i := range t.Records {
		s.Records = append(s.Records, resolve(t, &t.Records[i]))
	}
	return s
}

// randomTrace builds a deterministic pseudo-random trace exercising every
// field the codec carries: symbols, stacks, taint/ctl sets, flags, metadata.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New()
	pids := []string{"node#1", "node#2", "worker#1"}
	sites := []string{"", "app/a.go:10", "app/a.go:20", "app/b.go:5"}
	ress := []string{"", "heap:node#1:Obj1.f", "gfs:/data/x", "cv:node#2:open/3"}
	auxs := []string{"", "ping", "create", "main"}
	stacks := []trace.StackID{trace.NoStack}
	for _, fr := range []string{"main", "rpc:ping", "scope"} {
		stacks = append(stacks, tr.PushFrame(stacks[len(stacks)-1], tr.Intern(fr)))
	}
	for _, p := range pids {
		tr.AddPID(p)
	}
	for i := 0; i < n; i++ {
		r := trace.Record{
			TS:      int64(i * 2),
			Kind:    trace.Kind(rng.Intn(int(trace.KRestart)) + 1),
			Machine: tr.Intern("m" + string(rune('1'+rng.Intn(2)))),
			PID:     tr.Intern(pids[rng.Intn(len(pids))]),
			Thread:  rng.Intn(4),
			Site:    tr.Intern(sites[rng.Intn(len(sites))]),
			Res:     tr.Intern(ress[rng.Intn(len(ress))]),
			Aux:     tr.Intern(auxs[rng.Intn(len(auxs))]),
			Target:  tr.Intern(pids[rng.Intn(len(pids))]),
			Stack:   stacks[rng.Intn(len(stacks))],
			Flags:   uint32(rng.Intn(8)),
		}
		if i > 0 {
			r.Frame = trace.OpID(rng.Intn(i) + 1)
			r.Src = trace.OpID(rng.Intn(i + 1))
			r.Causor = trace.OpID(rng.Intn(i + 1))
			for j := 0; j < rng.Intn(3); j++ {
				r.Taint = append(r.Taint, trace.OpID(rng.Intn(i)+1))
			}
			for j := 0; j < rng.Intn(3); j++ {
				r.Ctl = append(r.Ctl, trace.OpID(rng.Intn(i)+1))
			}
		}
		tr.Append(r)
	}
	tr.CrashStep = 42
	tr.CrashedPID = "node#1"
	tr.BaselineNanos = 12345
	return tr
}

// TestFormatsRoundTripEquivalent is the codec property test: every decode
// path — monolithic Decode, a drained NewSource and Open on a saved file —
// must round-trip a trace to the same semantic content.
func TestFormatsRoundTripEquivalent(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		tr := randomTrace(seed, 200)
		want := flatten(tr)

		var fct bytes.Buffer
		if err := tr.Encode(&fct); err != nil {
			t.Fatalf("seed %d: Encode: %v", seed, err)
		}
		if string(fct.Bytes()[:4]) != trace.FormatMagic {
			t.Fatalf("seed %d: encoded stream does not start with %q", seed, trace.FormatMagic)
		}
		decoded, err := trace.Decode(bytes.NewReader(fct.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		src, err := trace.NewSource(bytes.NewReader(fct.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: NewSource: %v", seed, err)
		}
		sourced, err := trace.Drain(src)
		if err != nil {
			t.Fatalf("seed %d: Drain: %v", seed, err)
		}
		path := filepath.Join(dir, "t.trace")
		if err := tr.Save(path); err != nil {
			t.Fatalf("seed %d: Save: %v", seed, err)
		}
		opened, err := trace.Open(path)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		loaded, err := trace.Drain(opened)
		if err != nil {
			t.Fatalf("seed %d: Drain(Open): %v", seed, err)
		}

		for name, got := range map[string]*trace.Trace{"decode": decoded, "source": sourced, "open": loaded} {
			if g := flatten(got); !reflect.DeepEqual(g, want) {
				t.Errorf("seed %d: %s round trip diverged", seed, name)
			}
		}
	}
}

// legacyFixture is the semantic content of testdata/legacy_v2.fct2, an FCT2
// file written by an earlier build's encoder.
func legacyFixture() semantic {
	return semantic{
		PIDs:          []string{"node#1", "node#2"},
		CrashStep:     20,
		CrashedPID:    "node#1",
		BaselineNanos: 12345,
		Records: []recordData{
			{ID: 1, TS: 10, Machine: "m1", PID: "node#1", Thread: 1, Kind: trace.KThreadStart,
				Aux: "main", Stack: []string{"main"}},
			{ID: 2, TS: 12, Machine: "m1", PID: "node#1", Thread: 1, Frame: 1, Kind: trace.KHeapWrite,
				Site: "app/x.go:10", Res: "heap:node#1:Obj1.f", Stack: []string{"main", "scope"},
				Taint: []trace.OpID{1}},
			{ID: 3, TS: 14, Machine: "m1", PID: "node#1", Thread: 1, Frame: 1, Kind: trace.KMsgSend,
				Site: "app/x.go:20", Aux: "ping", Target: "node#2", Flags: trace.FlagDroppable,
				Stack: []string{"main"}, Ctl: []trace.OpID{2}},
			{ID: 4, TS: 16, Machine: "m2", PID: "node#2", Thread: 2, Kind: trace.KThreadStart,
				Aux: "rpc:ping", Stack: []string{"rpc:ping"}, Causor: 3},
			{ID: 5, TS: 18, Machine: "m2", PID: "node#2", Thread: 2, Frame: 4, Kind: trace.KHeapRead,
				Site: "app/y.go:5", Res: "heap:node#1:Obj1.f", Src: 2, Flags: trace.FlagHandlerCtx,
				Stack: []string{"rpc:ping"}, Taint: []trace.OpID{2}, Ctl: []trace.OpID{4}},
			{ID: 6, TS: 20, Machine: "m1", PID: "system", Kind: trace.KCrash,
				Site: "app/x.go:20", Aux: "node#1"},
		},
	}
}

// TestFCT2FixtureLoads pins the on-disk format against an earlier build: an
// FCT2 file it wrote must keep loading, with its content intact, through
// both the monolithic loader and the streaming Open path.
func TestFCT2FixtureLoads(t *testing.T) {
	path := filepath.Join("testdata", "legacy_v2.fct2")
	got, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatten(got), legacyFixture()) {
		t.Fatalf("fct2 fixture diverged:\ngot  %+v\nwant %+v", flatten(got), legacyFixture())
	}

	src, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var n int
	for {
		win, err := src.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n += len(win)
	}
	want := legacyFixture()
	if n != len(want.Records) {
		t.Fatalf("streamed %d records, want %d", n, len(want.Records))
	}
	if !reflect.DeepEqual(flatten(src.Trace()), want) {
		t.Fatal("fct2 fixture diverged on the Source path")
	}
}

// TestDecodeRejectsOlderGenerations: streams from the format generations
// before FCT2 fail with an error that names them, on every entry point.
func TestDecodeRejectsOlderGenerations(t *testing.T) {
	cases := map[string][]byte{
		"fct1 magic":       []byte("FCT1"),
		"fct1 stream":      append([]byte("FCT1"), 0x1f, 0x8b, 0x08, 0x00),
		"bare gzip header": {0x1f, 0x8b},
		"gzipped gob":      {0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00},
	}
	dir := t.TempDir()
	for name, raw := range cases {
		path := filepath.Join(dir, "old.trace")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, decErr := trace.Decode(bytes.NewReader(raw))
		_, srcErr := trace.NewSource(bytes.NewReader(raw))
		_, loadErr := trace.Load(path)
		for entry, err := range map[string]error{"Decode": decErr, "NewSource": srcErr, "Load": loadErr} {
			if err == nil || !strings.Contains(err.Error(), "unsupported older trace generation") {
				t.Errorf("%s via %s: err = %v, want an unsupported-older-generation error", name, entry, err)
			}
		}
	}
}

// TestDecodeRejectsGarbage: neither magic nor gzip → a clear error.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
