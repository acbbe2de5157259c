package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"time"

	"repro/internal/server"
)

// serve-mixed: the serving tier with server.New defaults on loopback
// TCP. Two connections carry 90% point SELECTs and 10% autocommit
// increments: in the timed window each is a closed loop with a short
// think time, and a fixed ladder of open-loop rates follows it. The
// load generator is a child process (loadgen.go).

const (
	serveConns      = 2
	serveWriteShare = 0.1
	// serveLimit is the read p99 latency limit of the service-level
	// objective; serveFailBound is its failure bound.
	serveLimit     = 20 * time.Millisecond
	serveFailBound = 0.01
	// serveLateBound is the highest generator lateness p99, as a share
	// of serveLimit, at which a run still measures the program rather
	// than the generator.
	serveLateBound = 0.75
	// serveThink is the think time of the timed window's closed loops.
	// It keeps each idle gap short: on a virtual machine an open loop's
	// long idle gaps put the vCPUs to sleep, and the time the host takes
	// to wake them, which depends on the neighbours rather than on the
	// program, then made up most of a request's latency and moved its
	// median by a quarter from run to run.
	serveThink = 100 * time.Microsecond
	// serveRefRate is the ladder rate whose generator lateness decides
	// whether the ladder measured the program or the generator.
	serveRefRate = 2000
	readSQL      = "SELECT v FROM kv WHERE k = ?"
	writeSQL     = "UPDATE kv SET v = v + 1 WHERE k = ?"
)

// serveLadder is the fixed ladder of arrival rates, in requests per
// second, probed after the window for the highest rate that meets the
// objective. It is never calibrated against the code under test.
var serveLadder = []int{1000, serveRefRate, 4000, 8000, 16000, 32000}

// serveRungDur is how long each ladder rate is held.
const serveRungDur = 1500 * time.Millisecond

type serveInst struct {
	srv  *server.Server
	conn *wireConn // the benchmark's own connection: seeding and checks
	gen  *loadgen
	rows int
	seed int64
	runs int64
	tiny bool

	sum0  int64 // SUM(v) after seeding
	acked int64 // increments the server acknowledged
	bad   error
}

func setupServe(seed int64, tiny bool) (instance, error) {
	s := &serveInst{rows: 5000, seed: seed, tiny: tiny}
	if tiny {
		s.rows = 200
	}
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	if s.conn, err = dial(addr.String()); err != nil {
		s.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := []server.Request{{Op: server.OpExec, SQL: "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"}, {Op: server.OpBegin}}
	for k := 0; k < s.rows; k++ {
		v := rng.Int63n(1000)
		s.sum0 += v
		reqs = append(reqs, server.Request{Op: server.OpExec, SQL: "INSERT INTO kv (k, v) VALUES (?, ?)", Args: []any{k, v}})
	}
	reqs = append(reqs, server.Request{Op: server.OpCommit})
	for _, req := range reqs {
		if _, err := s.conn.roundTrip(req); err != nil {
			s.close()
			return nil, fmt.Errorf("seeding: %w", err)
		}
	}
	if s.gen, err = startLoadgen(addr.String()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// run drives the closed loops for d.
func (s *serveInst) run(d time.Duration, spans *spanLog) (*window, error) {
	res, err := s.load([]rungPlan{{Dur: d, Think: serveThink}}, spans != nil)
	if err != nil {
		return nil, err
	}
	for _, t := range res.RTT {
		spans.record(spanRTT, time.Unix(0, t[0]), time.Unix(0, t[1]), -1)
	}
	rr := res.Rungs[0]
	w := &window{wall: time.Duration(rr.WallNS), attempted: rr.Attempted, failed: rr.Failed, readOps: true}
	w.ops = w.attempted - w.failed
	w.read.addPairs(rr.Reads)
	w.write.addPairs(rr.Writes)
	w.layer = map[string]float64{"bench.fail_frac": rr.FailFrac}
	w.detail = map[string]any{"think_us": us(serveThink), "fail_codes": rr.Codes, "busy_retries": rr.BusyRetries}
	return w, nil
}

// ladder holds each rate of the ladder in turn and reports the highest
// that meets the objective: read p99 within the limit counting failed
// reads as over it, failures within the bound, and the backlog drained
// within the limit after the last arrival. A ladder whose generator ran
// late by a large share of the limit at the reference rate measured
// the generator: it is run again, and a third such ladder fails the
// run. (A rung is short enough that one stall of the generator's
// process sets its p99.)
func (s *serveInst) ladder() (maxRate int, rungs []*rungResult, err error) {
	dur := serveRungDur
	if s.tiny {
		dur /= 10
	}
	var plan []rungPlan
	for _, r := range serveLadder {
		plan = append(plan, rungPlan{Rate: r, Dur: dur})
	}
	for attempt := 1; ; attempt++ {
		res, err := s.load(plan, false)
		if err != nil {
			return 0, nil, err
		}
		late := 0.0
		for _, rr := range res.Rungs {
			if rr.MeetsSLO {
				maxRate = rr.Rate
			}
			if rr.Rate == serveRefRate {
				late = rr.Late.P99us
			}
			rr.Reads, rr.Writes = nil, nil
		}
		// The self-test's rungs are too short for this.
		if s.tiny || late <= serveLateBound*us(serveLimit) {
			return maxRate, res.Rungs, nil
		}
		if attempt == 3 {
			return 0, nil, fmt.Errorf("generator lateness p99 %.0fus at %d req/s exceeds %.0f%% of the %v limit in %d ladders", late, serveRefRate, 100*serveLateBound, serveLimit, attempt)
		}
		maxRate = 0
	}
}

// load runs one plan; each draws a new arrival stream from the seed.
func (s *serveInst) load(rungs []rungPlan, spans bool) (*loadResult, error) {
	s.runs++
	res, err := s.gen.run(loadPlan{Seed: s.seed*1000 + s.runs, Rows: s.rows, Rungs: rungs, Spans: spans})
	if err != nil {
		return nil, err
	}
	s.acked += res.Acked
	if res.Bad != "" && s.bad == nil {
		s.bad = errors.New(res.Bad)
	}
	return res, nil
}

// loadgen is the load generator child process: this binary run with
// -loadgen, fed plans on its stdin.
type loadgen struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *json.Decoder
}

func startLoadgen(addr string) (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-loadgen", addr)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return &loadgen{cmd: cmd, in: in, out: json.NewDecoder(out)}, nil
}

func (g *loadgen) run(plan loadPlan) (*loadResult, error) {
	if err := json.NewEncoder(g.in).Encode(plan); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	res := &loadResult{}
	if err := g.out.Decode(res); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return res, nil
}

// stop closes the generator's stdin and waits for it to exit.
func (g *loadgen) stop() error {
	_ = g.in.Close()
	return g.cmd.Wait()
}

func (s *serveInst) probe() probe {
	return probe{st: s.srv.Stack(), mgr: s.srv.Manager(), srv: s.srv}
}

// check verifies that SUM(v) counts exactly the acknowledged
// increments; the generator checked each answer as it arrived.
func (s *serveInst) check() error {
	if s.bad != nil {
		return s.bad
	}
	resp, err := s.conn.roundTrip(server.Request{Op: server.OpQuery, SQL: "SELECT SUM(v) FROM kv"})
	if err != nil {
		return err
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
		return errors.New("SUM(v) returned no value")
	}
	sum, ok := resp.Rows[0][0].(float64)
	if !ok || int64(sum) != s.sum0+s.acked {
		return fmt.Errorf("SUM(v) is %v, want %d seeded + %d acknowledged increments", resp.Rows[0][0], s.sum0, s.acked)
	}
	return nil
}

func (s *serveInst) inputs() map[string]any {
	return map[string]any{
		"rows":        s.rows,
		"conns":       serveConns,
		"write_share": serveWriteShare,
		"ladder":      serveLadder,
		"rung_s":      serveRungDur.Seconds(),
		"ref_rate":    serveRefRate,
		"think_us":    us(serveThink),
		"limit_ms":    float64(serveLimit) / float64(time.Millisecond),
		"fail_bound":  serveFailBound,
		"late_bound":  serveLateBound,
		"server":      "server.New defaults",
		"window":      "closed loop per connection with think time",
		"arrivals":    "ladder: poisson, generator in a child process",
	}
}

func (s *serveInst) close() {
	if s.gen != nil {
		if err := s.gen.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: load generator: %v\n", err)
		}
	}
	if s.conn != nil {
		_ = s.conn.nc.Close()
	}
	_ = s.srv.Shutdown()
}
