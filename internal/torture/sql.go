package torture

import (
	"fmt"
	"maps"
	"math/rand"
	"time"

	xftl "repro"
	"repro/internal/nand"
	"repro/internal/sqlite"
	"repro/internal/storage"
)

// SQL workload shape: the synth-style update workload (partsupp table,
// supplycost updates) through SQLite, the file system and the device.
const (
	sqlTuples     = 400
	sqlTxns       = 40
	sqlUpdates    = 4 // keys rewritten per transaction
	sqlFaultScale = 20
)

// sqlCutEvery sizes each journal mode's random cut cadence to about 25
// of its transactions — an X-FTL commit costs ~24 NAND ops, a WAL one
// ~57, a rollback-journal one ~110 — so every mode trips cuts even on a
// two-seed grid.
var sqlCutEvery = map[xftl.Mode]int64{xftl.ModeRollback: 4000, xftl.ModeWAL: 1500, xftl.ModeXFTL: 600}

// sqlLoad checks every key's supplycost against the oracle of committed
// updates after each recovery. A transaction whose COMMIT was
// interrupted is in-doubt and may land either way, but must be atomic
// across its keys.
//
// In rollback-journal mode one extra outcome is legal: the journal
// deletion that commits a transaction is a metadata operation whose
// durability lags until the next file-system metadata commit (the next
// fsync), exactly as with SQLite's journal_mode=DELETE on a journaling
// file system without a directory sync. A crash inside that window
// resurrects the hot journal and recovery rolls the transaction back.
// The oracle therefore accepts the state just before the most recent
// commit as well — but only as a complete, consistent snapshot; any
// mix of states is still a corruption.
type sqlLoad struct {
	oneDevice
	mode  xftl.Mode
	scale float64 // fault-model rate multiplier; 0 = ideal flash

	st      *xftl.Stack
	db      *sqlite.DB
	rng     *rand.Rand
	oracle  map[int]float64 // partkey -> committed supplycost
	pending map[int]float64 // the open transaction's updates
	// prev, in rollback-journal mode, is the committed state just before
	// the most recent commit, which stays revocable until the next fsync
	// makes its journal deletion durable. nil = nothing revocable.
	prev map[int]float64
}

// sqlProfile is a mid-size geometry: big enough for the simfs metadata
// and journal regions plus a few thousand database pages, small enough
// to keep a multi-crash run fast.
func sqlProfile() storage.Profile {
	return storage.Profile{
		Name: "torture-sql",
		Nand: nand.Config{
			Blocks:        256,
			PagesPerBlock: 64,
			PageSize:      2048,
			ReadLatency:   60 * time.Microsecond,
			ProgLatency:   400 * time.Microsecond,
			EraseLatency:  2 * time.Millisecond,
			Channels:      4,
			Ways:          1,
		},
		CmdOverhead:     30 * time.Microsecond,
		TransferPerPage: 8 * time.Microsecond,
		BarrierOverhead: 200 * time.Microsecond,
		Channels:        2,
	}
}

func (s *sqlLoad) setup(seed int64) (*rand.Rand, error) {
	var fault *nand.FaultModel
	if s.scale > 0 {
		fault = nand.DefaultFaultModel(seed).Scale(s.scale)
	}
	st, err := xftl.NewStackOptions(sqlProfile(), s.mode, xftl.StackOptions{Fault: fault})
	if err != nil {
		return nil, err
	}
	s.st, s.dev = st, st.Device
	if s.db, err = st.OpenDBWithCache("torture.db", 8); err != nil {
		return nil, err
	}
	if err := loadTable(s.db); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if s.oracle, err = scan(s.db); err != nil {
		return nil, fmt.Errorf("baseline scan: %w", err)
	}
	s.pending, s.prev = nil, nil
	s.rng = rand.New(rand.NewSource(seed * 7919))
	return s.rng, nil
}

func (s *sqlLoad) exec(i int) error {
	keys := distinct(sqlUpdates, func() int { return s.rng.Intn(sqlTuples) + 1 })
	s.pending = make(map[int]float64, len(keys))
	if err := s.db.Begin(); err != nil {
		return err
	}
	for j, k := range keys {
		v := float64(i*1000 + j)
		if _, err := s.db.Exec(`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`, v, k); err != nil {
			return err
		}
		s.pending[k] = v
	}
	return nil
}

func (s *sqlLoad) commit(int) (bool, error) {
	if err := s.db.Commit(); err != nil {
		return false, err
	}
	if s.mode == xftl.ModeRollback {
		s.prev = s.oracle
	}
	s.oracle, s.pending = s.applied(), nil
	return false, nil
}

// applied is the oracle with the open transaction's updates applied.
func (s *sqlLoad) applied() map[int]float64 {
	next := maps.Clone(s.oracle)
	maps.Copy(next, s.pending)
	return next
}

// recover remounts, reopens the database (running its own recovery),
// and requires it to equal exactly one consistent candidate state: the
// oracle, the pre-last-commit state (rollback mode only), or — when the
// commit command itself was interrupted — the oracle plus the open
// transaction's updates.
func (s *sqlLoad) recover(inDoubt bool) (bool, error) {
	s.st.FS.PowerCut() // align FS state with the already-dead device
	if err := s.st.Remount(); err != nil {
		return false, fmt.Errorf("remount: %w", err)
	}
	var err error
	if s.db, err = s.st.OpenDBWithCache("torture.db", 8); err != nil {
		return false, fmt.Errorf("reopen: %w", err)
	}
	got, err := scan(s.db)
	if err != nil {
		return false, fmt.Errorf("post-recovery scan: %w", err)
	}
	type candidate struct {
		name  string
		state map[int]float64
	}
	cands := []candidate{{"committed", s.oracle}}
	if s.prev != nil {
		cands = append(cands, candidate{"revoked", s.prev})
	}
	if inDoubt {
		cands = append(cands, candidate{"indoubt-new", s.applied()})
	}
	var mismatches []string
	for _, c := range cands {
		if bad := diff(got, c.state); bad != "" {
			mismatches = append(mismatches, c.name+": "+bad)
			continue
		}
		// Recovery landed on a consistent snapshot; it becomes the new
		// oracle. Replay of a resurrected journal is idempotent and the
		// pager fsyncs after playback, so the recovered state is durable
		// — nothing stays revocable.
		s.oracle, s.prev, s.pending = c.state, nil, nil
		return c.name == "revoked", nil
	}
	return false, fmt.Errorf("recovered state matches no consistent snapshot: %v", mismatches)
}

func (s *sqlLoad) finish() error {
	got, err := scan(s.db)
	if err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	if bad := diff(got, s.oracle); bad != "" {
		return fmt.Errorf("durability violation: %s", bad)
	}
	return nil
}

// diff names the first key whose value in got differs from want.
func diff(got, want map[int]float64) string {
	for k, v := range want {
		if got[k] != v {
			return fmt.Sprintf("key %d = %v, want %v", k, got[k], v)
		}
	}
	return ""
}

// loadTable creates and fills partsupp with deterministic supplycosts.
func loadTable(db *sqlite.DB) error {
	if err := db.ExecScript(`
		CREATE TABLE partsupp (
			ps_partkey   INTEGER PRIMARY KEY,
			ps_supplycost REAL,
			ps_comment   TEXT
		);
	`); err != nil {
		return err
	}
	const batch = 200
	if err := db.Begin(); err != nil {
		return err
	}
	ins, err := db.Prepare(`INSERT INTO partsupp VALUES (?, ?, ?)`)
	if err != nil {
		return err
	}
	for k := 1; k <= sqlTuples; k++ {
		if _, err := ins.Exec(k, float64(k), fmt.Sprintf("torture-%d", k)); err != nil {
			_ = db.Rollback()
			return err
		}
		if k%batch == 0 && k < sqlTuples {
			if err := db.Commit(); err != nil {
				return err
			}
			if err := db.Begin(); err != nil {
				return err
			}
		}
	}
	return db.Commit()
}

// scan reads every (partkey, supplycost) pair.
func scan(db *sqlite.DB) (map[int]float64, error) {
	rows, err := db.Query(`SELECT ps_partkey, ps_supplycost FROM partsupp`)
	if err != nil {
		return nil, err
	}
	m := make(map[int]float64, rows.Len())
	for _, r := range rows.Data {
		m[int(r[0].Int())] = r[1].Real()
	}
	return m, nil
}
