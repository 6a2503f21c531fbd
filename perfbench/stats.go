package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapWatch samples the live heap every millisecond and keeps the
// high-water mark since the last mark, above the live heap at that mark. It
// reads runtime/metrics, which does not stop the world, so the sampler
// barely perturbs the operations it watches.
type heapWatch struct {
	base uint64 // live heap at the last mark
	high atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []rtmetrics.Sample{{Name: heapMetric}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// raise lifts the high-water mark to v.
func (h *heapWatch) raise(v uint64) {
	for {
		cur := h.high.Load()
		if v <= cur || h.high.CompareAndSwap(cur, v) {
			return
		}
	}
}

// startHeapWatch starts sampling.
func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.mark()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.raise(readHeap())
			}
		}
	}()
	return h
}

// mark collects garbage, so the heap holds only live objects, and restarts
// the high-water mark there. What the benchmark itself keeps between
// operations (outputs for the deferred checks) is below the new baseline,
// and every operation starts from the same collector state.
func (h *heapWatch) mark() {
	runtime.GC()
	h.base = readHeap()
	h.high.Store(h.base)
}

// peakMiB is the high-water mark since the last mark, above its baseline.
func (h *heapWatch) peakMiB() float64 {
	h.raise(readHeap())
	return float64(h.high.Load()-h.base) / (1 << 20)
}

// close stops the sampler.
func (h *heapWatch) close() {
	close(h.stop)
	h.wg.Wait()
}
