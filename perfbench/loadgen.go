package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// The serve-mixed load generator runs in a child process of its own.
// Inside the server's process a sleeping dispatcher either wakes up to
// a millisecond late (Go timers) or holds a scheduler slot the server
// needs (a blocking nanosleep); in its own process it wakes within tens
// of microseconds and does not compete with the server's goroutines for
// the Go scheduler.

// loadPlan is what the parent asks the generator to run.
type loadPlan struct {
	Seed  int64      `json:"seed"`
	Rows  int        `json:"rows"`
	Rungs []rungPlan `json:"rungs"`
	// Spans asks for each request's send and answer times.
	Spans bool `json:"spans"`
}

// rungPlan is one fixed arrival rate, in requests per second, held for
// a fixed time. Rate 0 is a closed loop instead: each connection sends
// its next request Think after the answer to its last.
type rungPlan struct {
	Rate  int           `json:"rate"`
	Dur   time.Duration `json:"dur_ns"`
	Think time.Duration `json:"think_ns,omitempty"`
}

// loadResult is what the generator measured.
type loadResult struct {
	Rungs []*rungResult `json:"rungs"`
	Acked int64         `json:"acked"`
	Bad   string        `json:"bad,omitempty"`
	// RTT holds, when spans were asked for, each request's send and
	// answer times in Unix nanoseconds.
	RTT [][2]int64 `json:"rtt,omitempty"`
}

// rungResult is what one rung measured.
type rungResult struct {
	rungPlan
	WallNS      int64            `json:"wall_ns"` // first send to last answer
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	BusyRetries int64            `json:"busy_retries"`
	FailedReads int64            `json:"failed_reads"`
	FailFrac    float64          `json:"fail_frac"`
	Codes       map[string]int64 `json:"fail_codes"`
	Read        timing           `json:"read"`
	Write       timing           `json:"write"`
	Late        timing           `json:"gen_late"`
	DrainMS     float64          `json:"drain_ms"`
	SlowReads   int64            `json:"reads_over_limit"`
	MeetsSLO    bool             `json:"meets_slo"`
	// Reads and Writes hold each successful request's answer time in
	// Unix nanoseconds and its exact latency from its due time.
	Reads  [][2]int64 `json:"reads"`
	Writes [][2]int64 `json:"writes"`

	read, write, late samples
	lastAnswer        time.Time
}

type arrival struct {
	at    time.Duration // due time from the rung's start
	conn  int
	write bool
	key   int32
}

// inflight is a request sent and not yet answered.
type inflight struct {
	arrival
	due, sent time.Time // sent: the first attempt's send time
}

// serveRetryBudget bounds how long the generator retries one request.
// An answer with code "busy" means the write lock was not acquired and
// nothing was applied, so the generator sends the request again at
// once, as a client with a busy handler would; the wait shows in the
// request's latency and in the busy counters, and a request still busy
// this long after it was due counts as failed.
const serveRetryBudget = time.Second

// retry reports whether f, answered resp, is to be sent again.
func retry(f inflight, resp *server.Response) bool {
	return !resp.OK && resp.Code == "busy" && time.Since(f.due) < serveRetryBudget
}

type wireConn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	buf    []byte
	nextID uint64

	// sendMu orders pipelined sends. mu guards pending, the requests
	// sent and not yet answered in the order they were sent, which the
	// connection's reader pops as the answers arrive. A send blocked on
	// a full socket holds sendMu but not mu, so the reader keeps reading
	// the answers that let the server read on.
	sendMu  sync.Mutex
	mu      sync.Mutex
	ready   *sync.Cond
	pending []inflight
	closed  bool
}

func dial(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 4<<10)}
	c.ready = sync.NewCond(&c.mu)
	return c, nil
}

// pipeline queues f for the reader, then sends its request.
func (c *wireConn) pipeline(f inflight) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	c.pending = append(c.pending, f)
	c.ready.Signal()
	c.mu.Unlock()
	return c.send(f.arrival)
}

// next waits for the oldest unanswered request; ok is false once the
// connection's pipeline was shut.
func (c *wireConn) next() (f inflight, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) == 0 && !c.closed {
		c.ready.Wait()
	}
	if len(c.pending) == 0 {
		return f, false
	}
	f = c.pending[0]
	c.pending = c.pending[1:]
	return f, true
}

// shut wakes the reader with no more requests to come.
func (c *wireConn) shut() {
	c.mu.Lock()
	c.closed = true
	c.ready.Broadcast()
	c.mu.Unlock()
}

// roundTrip sends one request and waits for its successful response.
func (c *wireConn) roundTrip(req server.Request) (*server.Response, error) {
	c.nextID++
	req.ID = c.nextID
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := c.bw.Write(append(b, '\n')); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := c.read()
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s: %s (%s)", req.Op, resp.Error, resp.Code)
	}
	return resp, nil
}

func (c *wireConn) read() (*server.Response, error) {
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	resp := &server.Response{}
	if err := json.Unmarshal(line, resp); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	return resp, nil
}

// send writes one arrival's request without waiting for its response.
func (c *wireConn) send(a arrival) error {
	c.nextID++
	op, sql := server.OpQuery, readSQL
	if a.write {
		op, sql = server.OpExec, writeSQL
	}
	b := append(c.buf[:0], `{"id":`...)
	b = strconv.AppendUint(b, c.nextID, 10)
	b = append(b, `,"op":"`...)
	b = append(b, op...)
	b = append(b, `","sql":"`...)
	b = append(b, sql...)
	b = append(b, `","args":[`...)
	b = strconv.AppendInt(b, int64(a.key), 10)
	b = append(b, "]}\n"...)
	c.buf = b
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	return c.bw.Flush()
}

// loadgenMain is the child process: it dials the server at addr, then
// runs each plan read from stdin and writes its result to stdout, until
// stdin closes. The connections persist across plans, so a warm-up
// plan warms the connections the timed plan uses.
func loadgenMain(addr string) error {
	// One scheduler slot each for the dispatcher and the readers, so a
	// dispatcher asleep in nanosleep never delays a reader.
	runtime.GOMAXPROCS(serveConns + 1)
	// The dispatcher runs on this thread. Linux lets a nanosleep end up
	// to the thread's timer slack late (50us by default); 1ns of slack
	// makes it wake within about ten microseconds.
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); errno != 0 {
		return fmt.Errorf("loadgen timer slack: %v", errno)
	}
	g := &generator{}
	for i := range g.conns {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		defer c.nc.Close()
		g.conns[i] = c
	}
	dec, enc := json.NewDecoder(os.Stdin), json.NewEncoder(os.Stdout)
	for {
		var plan loadPlan
		if err := dec.Decode(&plan); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("loadgen plan: %w", err)
		}
		res, err := g.run(plan)
		if err != nil {
			return err
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
}

type generator struct {
	plan  loadPlan
	rng   *rand.Rand
	conns [serveConns]*wireConn
	res   loadResult
}

func (g *generator) run(plan loadPlan) (*loadResult, error) {
	g.plan, g.rng, g.res = plan, rand.New(rand.NewSource(plan.Seed)), loadResult{}
	for _, r := range g.plan.Rungs {
		run := g.runRung
		if r.Rate == 0 {
			run = g.runClosed
		}
		rr, err := run(r)
		if err != nil {
			return nil, err
		}
		g.res.Rungs = append(g.res.Rungs, rr)
		if g.res.Bad != "" {
			break
		}
	}
	return &g.res, nil
}

// runRung drives one rate: the dispatcher sends every
// arrival at its due time, never waiting for responses and never
// dropping one, and each connection's reader times the answers from
// their due times.
func (g *generator) runRung(r rungPlan) (*rungResult, error) {
	var arrivals []arrival
	mean := float64(time.Second) / float64(r.Rate)
	for at := time.Duration(g.rng.ExpFloat64() * mean); at < r.Dur; at += time.Duration(g.rng.ExpFloat64() * mean) {
		arrivals = append(arrivals, arrival{
			at:    at,
			conn:  g.rng.Intn(serveConns),
			write: g.rng.Float64() < serveWriteShare,
			key:   int32(g.rng.Intn(g.plan.Rows)),
		})
	}
	rr := &rungResult{rungPlan: r, Codes: map[string]int64{}}
	var want [serveConns]int
	for _, a := range arrivals {
		want[a.conn]++
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2*serveConns)
	for i, c := range g.conns {
		c.pending, c.closed = c.pending[:0], false
		// A request waits here for its resend at most once at a time.
		busy := make(chan inflight, want[i])
		wg.Add(2)
		// The resender sends again the requests answered busy. The
		// reader must not: blocked on a full socket, it would stop
		// reading the answers whose backlog blocks the server.
		go func(i int, c *wireConn) {
			defer wg.Done()
			for f := range busy {
				if err := c.pipeline(f); err != nil {
					errs[serveConns+i] = err
					return
				}
			}
		}(i, c)
		// The reader takes one final answer for each of its
		// connection's arrivals.
		go func(i int, c *wireConn) {
			defer wg.Done()
			defer close(busy)
			for done := 0; done < want[i]; {
				f, ok := c.next()
				if !ok {
					return
				}
				resp, err := c.read()
				now := time.Now()
				if err != nil {
					errs[i] = err
					return
				}
				if retry(f, resp) {
					mu.Lock()
					rr.BusyRetries++
					mu.Unlock()
					busy <- f
					continue
				}
				mu.Lock()
				g.account(rr, f, resp, now)
				mu.Unlock()
				done++
			}
		}(i, c)
	}
	start := time.Now()
	var sendErr error
	for _, a := range arrivals {
		due := start.Add(a.at)
		waitUntil(due)
		if err := g.conns[a.conn].pipeline(inflight{arrival: a, due: due, sent: time.Now()}); err != nil {
			sendErr = err
			break
		}
	}
	if sendErr != nil {
		for _, c := range g.conns {
			c.shut()
		}
	}
	wg.Wait()
	if err := errors.Join(append(errs, sendErr)...); err != nil {
		return nil, err
	}
	g.finish(rr, start)
	return rr, nil
}

// runClosed drives a closed loop on every connection for r.Dur.
func (g *generator) runClosed(r rungPlan) (*rungResult, error) {
	rr := &rungResult{rungPlan: r, Codes: map[string]int64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	start := time.Now()
	end := start.Add(r.Dur)
	for i, c := range g.conns {
		rng := rand.New(rand.NewSource(g.rng.Int63()))
		wg.Add(1)
		go func(i int, c *wireConn) {
			defer wg.Done()
			for time.Now().Before(end) {
				a := arrival{conn: i, write: rng.Float64() < serveWriteShare, key: int32(rng.Intn(g.plan.Rows))}
				f := inflight{arrival: a, due: time.Now()}
				f.sent = f.due
				var resp *server.Response
				for {
					if err := c.send(a); err != nil {
						errs[i] = err
						return
					}
					var err error
					if resp, err = c.read(); err != nil {
						errs[i] = err
						return
					}
					if !retry(f, resp) {
						break
					}
					mu.Lock()
					rr.BusyRetries++
					mu.Unlock()
				}
				now := time.Now()
				mu.Lock()
				g.account(rr, f, resp, now)
				mu.Unlock()
				if r.Think > 0 {
					waitUntil(now.Add(r.Think))
				}
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	g.finish(rr, start)
	return rr, nil
}

// finish summarizes a rung that started at start.
func (g *generator) finish(rr *rungResult, start time.Time) {
	r := rr.rungPlan
	rr.Reads, rr.Writes = rr.read.pairs(), rr.write.pairs()
	rr.Read, rr.Write, rr.Late = rr.read.summary(), rr.write.summary(), rr.late.summary()
	rr.FailFrac = float64(rr.Failed) / float64(max(rr.Attempted, 1))
	if !rr.lastAnswer.IsZero() {
		rr.WallNS = int64(rr.lastAnswer.Sub(start))
		rr.DrainMS = float64(rr.lastAnswer.Sub(start.Add(r.Dur))) / float64(time.Millisecond)
	}
	// A failed read misses the latency limit.
	over := rr.SlowReads + rr.FailedReads
	reads := int64(rr.Read.N) + rr.FailedReads
	rr.MeetsSLO = float64(over) <= 0.01*float64(reads) &&
		rr.FailFrac <= serveFailBound &&
		rr.DrainMS <= float64(serveLimit)/float64(time.Millisecond)
}

// account records one answered request into its rung.
func (g *generator) account(rr *rungResult, f inflight, resp *server.Response, now time.Time) {
	rr.Attempted++
	rr.late.add(f.sent, f.sent.Sub(f.due))
	rr.lastAnswer = now
	if g.plan.Spans {
		g.res.RTT = append(g.res.RTT, [2]int64{f.sent.UnixNano(), now.UnixNano()})
	}
	lat := now.Sub(f.due)
	switch {
	case !resp.OK:
		rr.Failed++
		if !f.write {
			rr.FailedReads++
		}
		rr.Codes[resp.Code]++
		if !resp.Retryable || resp.Code == "" {
			g.fail(fmt.Errorf("request failed without a retryable code: %s (%q)", resp.Error, resp.Code))
		}
	case f.write:
		if resp.Affected != 1 {
			g.fail(fmt.Errorf("increment of k=%d affected %d rows", f.key, resp.Affected))
		}
		g.res.Acked++
		rr.write.add(now, lat)
	default:
		if len(resp.Rows) != 1 {
			g.fail(fmt.Errorf("SELECT of k=%d returned %d rows", f.key, len(resp.Rows)))
		}
		if lat > serveLimit {
			rr.SlowReads++
		}
		rr.read.add(now, lat)
	}
}

func (g *generator) fail(err error) {
	if g.res.Bad == "" {
		g.res.Bad = err.Error()
	}
}

// sleepSlack is how late the dispatcher's nanosleep wakes; it sleeps
// that much short and yields for the remainder.
const sleepSlack = 10 * time.Microsecond

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl option.
const prSetTimerSlack = 29

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > sleepSlack {
			ts := syscall.NsecToTimespec(int64(d - sleepSlack))
			_ = syscall.Nanosleep(&ts, nil)
		} else {
			runtime.Gosched()
		}
	}
}
