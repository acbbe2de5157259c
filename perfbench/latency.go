package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples records every latency of one class exactly. Percentiles are
// taken from the sorted raw values, never from a bucketed histogram, so
// a real change in a tail shows at its true size.
type samples struct {
	mu  sync.Mutex
	d   []time.Duration
	end []time.Time // when each sample's operation completed
}

func (s *samples) add(end time.Time, d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.end = append(s.end, end)
	s.mu.Unlock()
}

// pairs returns each sample as its completion time in Unix nanoseconds
// and its duration in nanoseconds, for passing between processes.
func (s *samples) pairs() [][2]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := make([][2]int64, len(s.d))
	for i, d := range s.d {
		p[i] = [2]int64{s.end[i].UnixNano(), int64(d)}
	}
	return p
}

func (s *samples) addPairs(p [][2]int64) {
	for _, x := range p {
		s.add(time.Unix(0, x[0]), time.Duration(x[1]))
	}
}

// timing is the summary of one latency class: the median, the p99,
// and the highest standard percentile with at least ten samples beyond
// it, with the sample count.
type timing struct {
	N       int     `json:"n"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	TailPct float64 `json:"tail_pct"`
	TailUS  float64 `json:"tail_us"`
	// P99Backed is false when fewer than ten samples lie beyond p99.
	P99Backed bool `json:"p99_backed"`
}

func (s *samples) summary() timing {
	s.mu.Lock()
	v := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	return summarize(v)
}

// summarize summarizes v; it sorts v.
func summarize(v []time.Duration) timing {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	t := timing{N: len(v)}
	if len(v) == 0 {
		return t
	}
	t.P50us = us(rank(v, 0.50))
	t.P99us = us(rank(v, 0.99))
	t.P99Backed = beyond(len(v), 0.99) >= 10
	t.TailPct, t.TailUS = 50, t.P50us
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if beyond(len(v), p) >= 10 {
			t.TailPct, t.TailUS = p*100, us(rank(v, p))
			break
		}
	}
	return t
}

// rank is the nearest-rank percentile of sorted v.
func rank(v []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

// beyond counts the samples ranked above percentile p.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Span names: the benchmark's public calls into each layer.
const (
	spanTx         = iota // one whole transaction or request
	spanStmt              // sqlite statement (prepared Query/Exec)
	spanCommit            // sqlite commit
	spanMvccBegin         // mvcc Manager.Begin
	spanMvccStmt          // mvcc Session.Query/Exec
	spanMvccCommit        // mvcc Session.Commit
	spanRTT               // server request: send to response
	numSpans
)

var spanNames = [numSpans]string{"tx", "sqlite.stmt", "sqlite.commit", "mvcc.begin", "mvcc.stmt", "mvcc.commit", "server.rtt"}

// span is one timed call. Times are nanoseconds since the log's epoch;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   uint8
	Start  int64
	End    int64
	Parent int32
}

// spanLog keeps the traced run's spans in memory until the run ends.
// A nil *spanLog records nothing, so untraced runs pay one compare.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	s     []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), s: make([]span, 0, 1<<16)} }

// record appends a finished span and returns its index.
func (l *spanLog) record(name int, start, end time.Time, parent int32) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s = append(l.s, span{Name: uint8(name), Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Parent: parent})
	return int32(len(l.s) - 1)
}

// reserve appends a placeholder root span, filled in by finish, so a
// root's children can name it before it ends.
func (l *spanLog) reserve(name int, start time.Time) int32 {
	return l.record(name, start, start, -1)
}

func (l *spanLog) finish(i int32, end time.Time) {
	if l == nil || i < 0 {
		return
	}
	l.mu.Lock()
	l.s[i].End = int64(end.Sub(l.epoch))
	l.mu.Unlock()
}

// p50 is the median duration of the named spans in microseconds.
func (l *spanLog) p50(name int) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	var v []time.Duration
	for _, s := range l.s {
		if int(s.Name) == name {
			v = append(v, time.Duration(s.End-s.Start))
		}
	}
	l.mu.Unlock()
	if len(v) == 0 {
		return 0
	}
	return summarize(v).P50us
}
