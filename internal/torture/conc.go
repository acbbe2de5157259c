package torture

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	xftl "repro"
	"repro/internal/mvcc"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
)

// Concurrent workload shape: concReaders snapshot readers race one
// writer that advances all concRows rows of kv to generation g in
// transaction g, so ANY consistent view reads one uniform generation —
// a reader that observes two at once has caught a torn snapshot.
const (
	concReaders  = 4
	concRows     = 32
	concCutEvery = 2500
	// concTxns is long enough that the writer alone (~22 NAND ops a
	// generation) passes every cut point the cadence can draw, so every
	// armed cut trips whatever the readers do.
	concTxns = 150
)

// concArm selects which reader machinery races the writer.
type concArm int

const (
	// mvccSessions: snapshot sessions on the MVCC layer; the database is
	// reopened through a fresh manager after the cut.
	mvccSessions concArm = iota
	// mvccPooled: the same readers served by the warm connection pool,
	// with the manager (and its pool) kept across the cut — the pool's
	// power-cut epoch must invalidate every pre-cut connection on the
	// first post-recovery checkout, so no reader is ever served a
	// pre-crash page cache.
	mvccPooled
	// walReaders: the WAL concurrent-reader baseline; readers hold
	// captured log views when power dies, and log replay on reopen
	// recovers.
	walReaders
)

var concArms = [...]struct {
	mode xftl.Mode
	db   string
	opts mvcc.Options
	salt int64 // seed multiplier of the cut RNG
}{
	mvccSessions: {xftl.ModeXFTL, "mvcc.db", mvcc.Options{Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: 32}, 6271},
	mvccPooled:   {xftl.ModeXFTL, "pool.db", mvcc.Options{Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: 32, PoolCapacity: concReaders}, 9463},
	walReaders:   {xftl.ModeWAL, "wal.db", mvcc.Options{Mode: mvcc.WALConc, Journal: pager.WAL, CacheSize: 32}, 7577},
}

// concLoad checks two invariants: live, every view is uniform and no
// older than the commit floor captured before it opened; after a cut,
// the recovered database is uniformly the last committed or the
// in-doubt generation.
type concLoad struct {
	oneDevice
	kind concArm

	fsys      *simfs.FS
	mgr       *mvcc.Manager
	tx        *mvcc.Session // the writer's open transaction
	g         int64         // its generation
	inDoubt   int64         // generation whose commit the cut interrupted; 0 = none
	cut       bool          // the run has recovered from a cut
	started   bool
	committed atomic.Int64 // newest generation whose commit returned
	done      atomic.Bool
	violation atomic.Pointer[error]
	readers   sync.WaitGroup
}

func (c *concLoad) setup(seed int64) (*rand.Rand, error) {
	*c = concLoad{kind: c.kind}
	a := concArms[c.kind]
	st, err := xftl.NewStackOptions(sqlProfile(), a.mode, xftl.StackOptions{QueueDepth: 16})
	if err != nil {
		return nil, err
	}
	c.dev, c.fsys = st.Device, st.FS
	if c.mgr, err = mvcc.NewManager(c.fsys, a.db, a.opts); err != nil {
		return nil, err
	}
	w, err := c.mgr.Begin(false)
	if err != nil {
		return nil, err
	}
	if err := seedKV(w, concRows); err != nil {
		return nil, err
	}
	return rand.New(rand.NewSource(seed * a.salt)), nil
}

// seedKV creates kv with rows rows at generation 0 and commits.
func seedKV(s interface {
	Exec(sql string, args ...any) (int64, error)
	Commit() error
}, rows int) error {
	if _, err := s.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		return err
	}
	for k := range rows {
		if _, err := s.Exec("INSERT INTO kv (k, v) VALUES (?, 0)", int64(k)); err != nil {
			return err
		}
	}
	return s.Commit()
}

func (c *concLoad) exec(i int) error {
	if !c.started {
		c.started = true
		for r := range concReaders {
			c.readers.Add(1)
			go c.read(r)
		}
	}
	c.g = int64(i)
	s, err := c.mgr.Begin(false)
	if err != nil {
		return err
	}
	if _, err := s.Exec("UPDATE kv SET v = ?", c.g); err != nil {
		_ = s.Rollback()
		return err
	}
	c.tx = s
	return nil
}

func (c *concLoad) commit(int) (bool, error) {
	err := c.tx.Commit()
	if err == nil {
		c.committed.Store(c.g)
	}
	return false, err
}

// read is one reader goroutine: snapshot after snapshot until stopped.
func (c *concLoad) read(r int) {
	defer c.readers.Done()
	for !c.done.Load() {
		// Commit floor: the snapshot about to open can never be older
		// than a commit that already returned.
		floor := c.committed.Load()
		s, err := c.mgr.Begin(true)
		if err != nil {
			c.fail(r, err)
			return
		}
		g, err := generation(s.Query, concRows)
		// Ceiling: at most one generation past what is known committed
		// now (a commit may land on the device just before the writer
		// records it).
		if ceil := c.committed.Load() + 1; err == nil && (g < floor || g > ceil) {
			err = fmt.Errorf("snapshot generation %d outside [%d, %d]", g, floor, ceil)
		}
		if err != nil {
			_ = s.Rollback()
			c.fail(r, err)
			return
		}
		if err := s.Commit(); err != nil {
			c.fail(r, err)
			return
		}
	}
}

// fail records a reader's error as the run's violation, unless it is
// the power cut surfacing.
func (c *concLoad) fail(r int, err error) {
	if !powerLost(err) {
		err = fmt.Errorf("reader %d: %w", r, err)
		c.violation.CompareAndSwap(nil, &err)
	}
}

func (c *concLoad) stop() error {
	c.done.Store(true)
	c.readers.Wait()
	if err := c.violation.Load(); err != nil {
		return *err
	}
	return nil
}

func (c *concLoad) recover(inDoubt bool) (bool, error) {
	if inDoubt {
		c.inDoubt = c.g
	}
	if c.kind != mvccPooled {
		_ = c.mgr.Close()
		c.mgr = nil
	}
	c.fsys.PowerCut()
	if err := c.fsys.Remount(); err != nil {
		return false, fmt.Errorf("remount: %w", err)
	}
	c.cut = true
	return false, nil
}

// finish verifies the recovered (or, without a cut, the final) state
// through a fresh manager, or through the surviving pool.
func (c *concLoad) finish() error {
	if c.kind != mvccPooled {
		if c.mgr != nil {
			_ = c.mgr.Close()
		}
		a := concArms[c.kind]
		var err error
		if c.mgr, err = mvcc.NewManager(c.fsys, a.db, a.opts); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		return c.check()
	}
	before, _ := c.mgr.PoolStats()
	if err := c.check(); err != nil {
		return err
	}
	mid, _ := c.mgr.PoolStats()
	if c.cut {
		// Every connection parked before the cut is a stale epoch: the
		// first post-recovery checkout must have closed them all.
		if got, want := mid.Invalidations-before.Invalidations, int64(before.Idle); got != want {
			return fmt.Errorf("post-cut checkout invalidated %d pooled conns, want %d", got, want)
		}
	}
	// The pool must come back warm: the next read at the unchanged
	// generation is a hit off the connection the check above pooled.
	if err := c.check(); err != nil {
		return err
	}
	if after, _ := c.mgr.PoolStats(); after.Hits <= mid.Hits {
		return fmt.Errorf("pool did not serve a warm hit after recovery: %+v", after)
	}
	return nil
}

// check reads kv in a fresh snapshot: it must be uniformly the last
// committed or the in-doubt generation.
func (c *concLoad) check() error {
	s, err := c.mgr.Begin(true)
	if err != nil {
		return fmt.Errorf("post-recovery begin: %w", err)
	}
	g, err := generation(s.Query, concRows)
	if err == nil {
		err = recovered(g, c.committed.Load(), c.inDoubt)
	}
	if err != nil {
		_ = s.Rollback()
		return fmt.Errorf("post-recovery: %w", err)
	}
	return s.Commit()
}

func (c *concLoad) close() {
	_ = c.stop()
	if c.mgr != nil {
		_ = c.mgr.Close()
	}
}

// generation reads kv through query and returns its one generation; a
// consistent view of kv never holds two.
func generation(query func(string, ...any) (*sqlite.Rows, error), rows int) (int64, error) {
	res, err := query("SELECT v FROM kv ORDER BY k")
	if err != nil {
		return 0, err
	}
	if res.Len() != rows {
		return 0, fmt.Errorf("view saw %d rows, want %d", res.Len(), rows)
	}
	gens := make([]int64, rows)
	for i, r := range res.Data {
		gens[i] = r[0].Int()
	}
	return uniform(gens)
}

// recovered checks that g is the last committed or the in-doubt
// generation (0 = none).
func recovered(g, committed, inDoubt int64) error {
	if g == committed || (inDoubt != 0 && g == inDoubt) {
		return nil
	}
	return fmt.Errorf("recovered generation %d, want %d or in-doubt %d", g, committed, inDoubt)
}

// uniform returns the single generation of gens, or an error naming
// the tear when two generations coexist.
func uniform(gens []int64) (int64, error) {
	for _, g := range gens {
		if g != gens[0] {
			return 0, fmt.Errorf("torn snapshot: generations %v", gens)
		}
	}
	return gens[0], nil
}
