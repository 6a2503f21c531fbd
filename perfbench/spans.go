package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// The span model. A traced run records one root span per operation
// (named "op") and, inside it, one span per call into a module's public
// function, named "<module>.<Function>". Spans nest: a span's parent is the
// span whose call caused it, so core.Observe contains the sim runs it
// starts. Sibling spans may overlap (trigger replays and campaign runs fan
// out over two workers). A span's self time is its duration minus the part
// of it its children cover (the union of their intervals); a span's layer
// is its module. The root's self time is the operation wall time no layer
// span covers: the benchmark's own glue plus program code outside the
// wrapped functions.

// rootSpan names an operation's root span.
const rootSpan = "op"

type span struct {
	name       string
	parent     int // -1 for a root
	start, end time.Duration
}

// tracer records spans; safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: at, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	at := t.now()
	t.mu.Lock()
	t.spans[id].end = at
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere: the program's
// own phase timings for work that runs inside a wrapped call.
func (t *tracer) add(name string, parent int, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

// startOf is span id's start time.
func (t *tracer) startOf(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].start
}

// durations lists the durations of every closed span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// total sums the durations of every closed span with this name.
func (t *tracer) total(name string) time.Duration {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return time.Duration(sum * float64(time.Millisecond))
}

// attribution is the self-time split of the recorded operations.
type attribution struct {
	opWall time.Duration            // summed root-span durations
	self   map[string]time.Duration // per layer, root excluded
	// unattributed is the summed root self time: operation wall time no
	// layer span covers.
	unattributed time.Duration
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// attribute computes every span's self time and folds it by layer.
func (t *tracer) attribute() attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	a := attribution{self: map[string]time.Duration{}}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		dur := s.end - s.start
		self := dur - covered(t.spans, children[i], s.start, s.end)
		if s.parent < 0 {
			a.opWall += dur
			a.unattributed += self
			continue
		}
		a.self[layerOf(s.name)] += self
	}
	return a
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.end < 0 {
			continue
		}
		a, b := max(c.start, lo), min(c.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}
