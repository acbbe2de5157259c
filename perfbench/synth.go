package main

import (
	"fmt"
	"math/rand"
	"time"

	xftl "repro"
	"repro/internal/bench"
	"repro/internal/sqlite"
	"repro/internal/workload/synth"
)

// synth-xftl: the paper's §6.2 workload at the Table 1 point. One
// closed-loop client runs transactions of five prepared point SELECT +
// UPDATE pairs on partsupp, each committed by an X-FTL device commit,
// on an OpenSSD-profile device aged to ~50% GC victim validity.

const (
	synthPairs = 5 // SELECT + UPDATE pairs per transaction
	// synthUtilization is the physical-space utilization that gives
	// ~50% GC victim validity on this simulator (the calibration behind
	// the Table 1 experiment in internal/bench).
	synthUtilization = 0.65
	// synthReserve is the logical space kept free beyond the aging fill
	// for the file system, the database and slack.
	synthReserve = 8192
	synthInputTx = 1 << 16 // pre-generated transactions, reused cyclically
)

type synthInst struct {
	st       *xftl.Stack
	db       *sqlite.DB
	sel, upd *sqlite.Stmt
	tuples   int
	cache    int

	// The benchmark's model: committed ps_supplycost by partkey.
	model []float64
	// Pre-generated inputs: partkeys and the costs written to them.
	keys  []int32
	costs []float64
	next  int
	// bad is the first read that disagreed with the model.
	bad error
}

func setupSynth(seed int64, tiny bool) (instance, error) {
	prof := xftl.OpenSSD()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cache := 2000
	if tiny {
		prof.Nand.Blocks = 256
		prof.Nand.PageSize = 2048
		cfg.Tuples = 2000
		cache = 200
	}
	dataPages := int64(prof.Nand.Blocks-4) * int64(prof.Nand.PagesPerBlock)
	logical := min(int64(float64(dataPages)*synthUtilization)+synthReserve, int64(float64(dataPages)*0.97))
	st, err := xftl.NewStackOptions(prof, xftl.ModeXFTL, xftl.StackOptions{FTLLogicalPages: logical, CacheSize: cache})
	if err != nil {
		return nil, err
	}
	s := &synthInst{st: st, tuples: cfg.Tuples, cache: cache}
	if _, err := bench.AgeDevice(st, 1.0, 0.6, seed); err != nil {
		s.close()
		return nil, fmt.Errorf("aging: %w", err)
	}
	if err := s.open(); err != nil {
		s.close()
		return nil, err
	}
	if err := synth.Load(s.db, cfg); err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	// The model starts from the loaded table.
	if s.model, err = s.readCosts(); err != nil {
		s.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e1ec7))
	n := synthInputTx * synthPairs
	if tiny {
		n = 256 * synthPairs
	}
	s.keys, s.costs = make([]int32, n), make([]float64, n)
	for i := range s.keys {
		s.keys[i] = int32(rng.Intn(cfg.Tuples) + 1)
		s.costs[i] = float64(rng.Intn(100000)) / 100
	}
	return s, nil
}

func (s *synthInst) open() error {
	db, err := s.st.OpenDB("synth.db")
	if err != nil {
		return err
	}
	s.db = db
	if s.sel, err = db.Prepare(`SELECT ps_supplycost FROM partsupp WHERE ps_partkey = ?`); err != nil {
		return err
	}
	s.upd, err = db.Prepare(`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`)
	return err
}

// readCosts scans the table into a slice indexed by partkey.
func (s *synthInst) readCosts() ([]float64, error) {
	rows, err := s.db.Query(`SELECT ps_partkey, ps_supplycost FROM partsupp`)
	if err != nil {
		return nil, err
	}
	if rows.Len() != s.tuples {
		return nil, fmt.Errorf("partsupp has %d rows, want %d", rows.Len(), s.tuples)
	}
	costs := make([]float64, s.tuples+1)
	for _, r := range rows.Data {
		costs[r[0].Int()] = r[1].Real()
	}
	return costs, nil
}

func (s *synthInst) run(d time.Duration, spans *spanLog) (*window, error) {
	w := &window{}
	start := time.Now()
	end := start.Add(d)
	var pending [synthPairs]struct {
		key  int32
		cost float64
	}
	for now := start; now.Before(end); {
		root := spans.reserve(spanTx, now)
		if err := s.db.Begin(); err != nil {
			return nil, err
		}
		for i := 0; i < synthPairs; i++ {
			j := s.next % len(s.keys)
			s.next++
			key, cost := s.keys[j], s.costs[j]
			want := s.model[key]
			for _, p := range pending[:i] {
				if p.key == key {
					want = p.cost
				}
			}
			t0 := time.Now()
			rows, err := s.sel.Query(key)
			t1 := time.Now()
			spans.record(spanStmt, t0, t1, root)
			if err != nil {
				return nil, err
			}
			w.read.add(t1, t1.Sub(t0))
			if rows.Len() != 1 {
				s.bad = fmt.Errorf("SELECT of partkey %d returned %d rows", key, rows.Len())
			} else if got := rows.Data[0][0].Real(); got != want {
				s.bad = fmt.Errorf("partkey %d reads supplycost %v, model has %v", key, got, want)
			}
			if s.bad != nil {
				_ = s.db.Rollback()
				return w.done(start), nil
			}
			if _, err := s.upd.Exec(cost, key); err != nil {
				return nil, err
			}
			spans.record(spanStmt, t1, time.Now(), root)
			pending[i].key, pending[i].cost = key, cost
		}
		t0 := time.Now()
		if err := s.db.Commit(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		spans.record(spanCommit, t0, t1, root)
		spans.finish(root, t1)
		for _, p := range pending {
			s.model[p.key] = p.cost
		}
		w.write.add(t1, t1.Sub(now))
		w.ops++
		now = t1
	}
	return w.done(start), nil
}

func (s *synthInst) probe() probe { return probe{st: s.st} }

// check cuts power, recovers the stack, reopens the database and
// compares every committed supplycost with the model.
func (s *synthInst) check() error {
	if s.bad != nil {
		return s.bad
	}
	s.db = nil // abandoned by the power cut
	s.st.PowerCut()
	if err := s.st.Remount(); err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	if err := s.open(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	return compareCosts(s)
}

func compareCosts(s *synthInst) error {
	got, err := s.readCosts()
	if err != nil {
		return err
	}
	for k := 1; k <= s.tuples; k++ {
		if got[k] != s.model[k] {
			return fmt.Errorf("after recovery partkey %d has supplycost %v, model has %v", k, got[k], s.model[k])
		}
	}
	return nil
}

func (s *synthInst) inputs() map[string]any {
	return map[string]any{
		"profile":      s.st.Device.Profile().Name,
		"flash_blocks": s.st.Device.Profile().Nand.Blocks,
		"tuples":       s.tuples,
		"tuple_bytes":  synth.DefaultConfig().TupleBytes,
		"pairs_per_tx": synthPairs,
		"utilization":  synthUtilization,
		"cache_pages":  s.cache,
		"page_bytes":   s.st.FS.PageSize(),
		"db_pages":     s.db.Pager().NPages(),
		"clients":      1,
	}
}

func (s *synthInst) close() {
	if s.db != nil {
		_ = s.db.Close()
		s.db = nil
	}
	_ = s.st.Close()
}
