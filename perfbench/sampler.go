package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/simclock"
)

// markEvery is the length of the intervals a window is cut into.
const markEvery = 100 * time.Millisecond

// sampler watches a running window: it reads the live Go heap (as the
// last garbage collection found it) every millisecond for its peak, and
// marks the end of each markEvery interval with the simulated clock.
// The live heap leaves out the garbage awaiting the next collection,
// whose amount depends on where in its cycle the collector happens to
// be when the window ends.
type sampler struct {
	clock *simclock.Clock
	done  chan struct{}
	wg    sync.WaitGroup
	peak  uint64
	marks []mark
}

// mark is the wall and simulated time at an interval boundary.
type mark struct {
	at  time.Time
	sim time.Duration
}

func startSampler(clock *simclock.Clock) *sampler {
	s := &sampler{clock: clock, done: make(chan struct{})}
	s.mark()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(heap)
			s.peak = max(s.peak, heap[0].Value.Uint64())
			if time.Since(s.marks[len(s.marks)-1].at) >= markEvery {
				s.mark()
			}
			select {
			case <-s.done:
				s.mark()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) mark() { s.marks = append(s.marks, mark{time.Now(), s.clock.Now()}) }

// stop ends the sampling and returns the peak heap and the marks.
func (s *sampler) stop() (uint64, []mark) {
	close(s.done)
	s.wg.Wait()
	return s.peak, s.marks
}

// steadyFigures are a window's figures, each the median over the
// window's intervals between marks. A burst of interference from the
// host, or a rare long event such as a busy writer polling the
// simulated clock forward by its whole budget, then moves a few
// intervals' figures rather than the run's.
type steadyFigures struct {
	opsPerS, readP50, writeP50, simMSPerOp float64
}

// steady computes the figures of a window whose read and write samples
// carry completion times. Reads count as operations when w.readOps is
// set; otherwise they are statements inside the write transactions.
// Intervals shorter than half of markEvery (the tail after the last
// mark) are left out.
func steady(marks []mark, w *window) steadyFigures {
	type interval struct {
		reads, writes []time.Duration
	}
	iv := make([]interval, len(marks)-1)
	place := func(s *samples, write bool) {
		for i, d := range s.d {
			for j := range iv {
				if !s.end[i].Before(marks[j].at) && s.end[i].Before(marks[j+1].at) {
					if write {
						iv[j].writes = append(iv[j].writes, d)
					} else {
						iv[j].reads = append(iv[j].reads, d)
					}
					break
				}
			}
		}
	}
	place(&w.read, false)
	place(&w.write, true)
	var rates, r50, w50, sim []float64
	for j, x := range iv {
		span := marks[j+1].at.Sub(marks[j].at)
		if span < markEvery/2 {
			continue
		}
		n := len(x.writes)
		if w.readOps {
			n += len(x.reads)
		}
		rates = append(rates, float64(n)/span.Seconds())
		if len(x.reads) > 0 {
			r50 = append(r50, summarize(x.reads).P50us)
		}
		if len(x.writes) > 0 {
			w50 = append(w50, summarize(x.writes).P50us)
		}
		if n > 0 {
			sim = append(sim, float64(marks[j+1].sim-marks[j].sim)/float64(time.Millisecond)/float64(n))
		}
	}
	return steadyFigures{median(rates), median(r50), median(w50), median(sim)}
}
