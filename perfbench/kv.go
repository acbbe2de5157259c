package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	xftl "repro"
	"repro/internal/mvcc"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
)

// kv-mvcc: the mvcc session layer with the warm reader pool on an
// 8-channel X-FTL stack at NCQ depth 32. Two closed-loop clients run
// transactions that are, with probability 0.9, a snapshot of four point
// SELECTs and otherwise four UPDATEs, all sent as SQL text. The table
// is larger than a connection's page cache.

const (
	kvClients   = 2
	kvStmts     = 4   // statements per transaction
	kvReadShare = 0.9 // share of read-only transactions
	kvPad       = 128 // pad bytes per row
	kvInputTx   = 1 << 16
	kvBatch     = 2000 // rows per seeding transaction
	kvBlocks    = 128  // flash erase blocks
)

type kvTx struct {
	write bool
	keys  [kvStmts]int32
}

type kvInst struct {
	st    *xftl.Stack
	mgr   *mvcc.Manager
	rows  int
	cache int
	pool  int

	txs  [kvClients][]kvTx
	next [kvClients]int

	// seq orders committed writes: it is bumped while the writer lock
	// is held, so a higher value is a later commit.
	seq atomic.Int64
	mu  sync.Mutex
	// model is the value of each key after every committed write.
	model []int64
	bad   error
}

func setupKV(seed int64, tiny bool) (instance, error) {
	s := &kvInst{rows: 20000, cache: 64, pool: kvClients}
	if tiny {
		s.rows, s.cache = 500, 16
	}
	prof := xftl.OpenSSD()
	prof.Nand.Channels, prof.Nand.Ways, prof.Channels = 8, 1, 8
	// A 128 MiB array fills during the warm-up, so the timed window
	// sees flash GC in steady state and the page store stays small.
	prof.Nand.Blocks = kvBlocks
	st, err := xftl.NewStackOptions(prof, xftl.ModeXFTL, xftl.StackOptions{CacheSize: s.cache, QueueDepth: 32})
	if err != nil {
		return nil, err
	}
	s.st = st
	s.mgr, err = mvcc.NewManager(st.FS, "kv.db", mvcc.Options{
		Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: s.cache, Pipelined: true, PoolCapacity: s.pool,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s.model = make([]int64, s.rows)
	pad := make([]byte, kvPad)
	for k := 0; k < s.rows; k += kvBatch {
		w, err := s.mgr.Begin(false)
		if err != nil {
			s.close()
			return nil, err
		}
		if k == 0 {
			if _, err := w.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER, pad TEXT)"); err != nil {
				s.close()
				return nil, err
			}
		}
		for j := k; j < min(k+kvBatch, s.rows); j++ {
			// Seeded values are negative; written values are positive
			// and grow with commit order.
			s.model[j] = -1 - rng.Int63n(1e9)
			for i := range pad {
				pad[i] = 'a' + byte(rng.Intn(26))
			}
			if _, err := w.Exec("INSERT INTO kv (k, v, pad) VALUES (?, ?, ?)", j, s.model[j], string(pad)); err != nil {
				s.close()
				return nil, err
			}
		}
		if err := w.Commit(); err != nil {
			s.close()
			return nil, err
		}
	}
	n := kvInputTx
	if tiny {
		n = 512
	}
	for c := range s.txs {
		s.txs[c] = make([]kvTx, n)
		for i := range s.txs[c] {
			tx := &s.txs[c][i]
			tx.write = rng.Float64() >= kvReadShare
			for j := range tx.keys {
				tx.keys[j] = int32(rng.Intn(s.rows))
			}
		}
	}
	return s, nil
}

func (s *kvInst) run(d time.Duration, spans *spanLog) (*window, error) {
	w := &window{readOps: true}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	var ops atomic.Int64
	errs := make([]error, kvClients)
	for c := 0; c < kvClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				tx := s.txs[c][s.next[c]%len(s.txs[c])]
				s.next[c]++
				ok, err := s.tx(tx, w, spans)
				if err != nil {
					errs[c] = err
					return
				}
				if !ok {
					return
				}
				ops.Add(1)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w.ops = ops.Load()
	return w.done(start), nil
}

// tx runs one transaction; false means a read disagreed with the model
// and the client should stop.
func (s *kvInst) tx(tx kvTx, w *window, spans *spanLog) (bool, error) {
	t0 := time.Now()
	root := spans.reserve(spanTx, t0)
	sess, err := s.mgr.Begin(!tx.write)
	t1 := time.Now()
	spans.record(spanMvccBegin, t0, t1, root)
	if err != nil {
		return false, err
	}
	var seq int64
	if tx.write {
		seq = s.seq.Add(1)
	}
	for i, k := range tx.keys {
		ts := time.Now()
		if tx.write {
			_, err = sess.Exec("UPDATE kv SET v = ? WHERE k = ?", seq*kvStmts+int64(i), k)
		} else {
			var rows *sqlite.Rows
			if rows, err = sess.Query("SELECT v FROM kv WHERE k = ?", k); err == nil && rows.Len() != 1 {
				s.fail(fmt.Errorf("SELECT of k=%d returned %d rows", k, rows.Len()))
				_ = sess.Rollback()
				return false, nil
			}
		}
		spans.record(spanMvccStmt, ts, time.Now(), root)
		if err != nil {
			_ = sess.Rollback()
			return false, err
		}
	}
	tc := time.Now()
	if err := sess.Commit(); err != nil {
		return false, err
	}
	t2 := time.Now()
	spans.record(spanMvccCommit, tc, t2, root)
	spans.finish(root, t2)
	if tx.write {
		s.mu.Lock()
		for i, k := range tx.keys {
			s.model[k] = max(s.model[k], seq*kvStmts+int64(i))
		}
		s.mu.Unlock()
		w.write.add(t2, t2.Sub(t0))
	} else {
		w.read.add(t2, t2.Sub(t0))
	}
	return true, nil
}

func (s *kvInst) fail(err error) {
	s.mu.Lock()
	if s.bad == nil {
		s.bad = err
	}
	s.mu.Unlock()
}

func (s *kvInst) probe() probe { return probe{st: s.st, mgr: s.mgr} }

// check compares the final table with the model of committed writes.
func (s *kvInst) check() error {
	if s.bad != nil {
		return s.bad
	}
	sess, err := s.mgr.Begin(true)
	if err != nil {
		return err
	}
	defer sess.Commit()
	rows, err := sess.Query("SELECT k, v FROM kv")
	if err != nil {
		return err
	}
	if rows.Len() != s.rows {
		return fmt.Errorf("kv has %d rows, want %d", rows.Len(), s.rows)
	}
	for _, r := range rows.Data {
		k, v := r[0].Int(), r[1].Int()
		if k < 0 || k >= int64(s.rows) || v != s.model[k] {
			return fmt.Errorf("kv row k=%d has v=%d, model has %d", k, v, s.model[min(max(k, 0), int64(s.rows-1))])
		}
	}
	return nil
}

func (s *kvInst) inputs() map[string]any {
	return map[string]any{
		"channels":      8,
		"flash_blocks":  kvBlocks,
		"queue_depth":   32,
		"rows":          s.rows,
		"pad_bytes":     kvPad,
		"cache_pages":   s.cache,
		"pool_capacity": s.pool,
		"clients":       kvClients,
		"stmts_per_tx":  kvStmts,
		"read_share":    kvReadShare,
		"page_bytes":    s.st.FS.PageSize(),
	}
}

func (s *kvInst) close() {
	if s.mgr != nil {
		_ = s.mgr.Close()
	}
	_ = s.st.Close()
}
