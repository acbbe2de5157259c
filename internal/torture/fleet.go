package torture

import (
	"fmt"
	"math/rand"

	xftl "repro"
	"repro/internal/shard"
	"repro/internal/storage"
)

// fleetShards is the fleet size: one database per shard, and every
// transaction advances all of them to its generation.
const fleetShards = 3

// fleetLoad checks atomicity across devices: after recovery every
// cross-shard transaction is visible on all of its participants or on
// none of them — never a mix — and which of the two is dictated by
// whether the coordinator record on shard 0 became durable before the
// lights went out. Its cut points are the 2PC stages of a commit, in
// protocol order: "prepared:<shard>" per participant, then
// "decision-logged", then "committed:<shard>" per participant.
type fleetLoad struct {
	f         *shard.Fleet
	dbs       []string
	tx        *shard.Tx
	g         int64 // the open transaction's generation
	committed int64 // newest committed generation
	inDoubt   int64 // generation whose commit the cut interrupted; 0 = none
	stages    int64 // 2PC stages passed
	cutAt     int64 // stage count at which power dies; 0 = none
}

// setup returns no RNG: the fleet is only ever cut at enumerated points.
func (l *fleetLoad) setup(seed int64) (*rand.Rand, error) {
	*l = fleetLoad{}
	f, err := shard.New(shard.Options{Shards: fleetShards, Profile: xftl.OpenSSD(), Mode: xftl.ModeXFTL})
	if err != nil {
		return nil, err
	}
	l.f = f
	f.SetCrashHook(func(string) bool {
		l.stages++
		return l.stages == l.cutAt
	})
	// One database per shard, spread by probing names off the seed so
	// different seeds exercise different name→shard layouts.
	seen := make(map[int]bool)
	for i := 0; len(l.dbs) < fleetShards; i++ {
		db := fmt.Sprintf("t%d-%d.db", seed, i)
		if s := f.Route(db); !seen[s] {
			seen[s] = true
			l.dbs = append(l.dbs, db)
		}
	}
	for _, db := range l.dbs {
		s, err := f.Begin(db, false)
		if err != nil {
			return nil, err
		}
		if err := seedKV(s, 1); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (l *fleetLoad) exec(i int) error {
	tx, err := l.f.BeginCross(l.dbs...)
	if err != nil {
		return err
	}
	l.tx, l.g = tx, int64(i)
	for _, db := range l.dbs {
		if _, err := tx.Exec(db, "UPDATE kv SET v = ?", l.g); err != nil {
			return err
		}
	}
	return nil
}

func (l *fleetLoad) commit(int) (bool, error) {
	err := l.tx.Commit()
	if err == nil {
		l.committed = l.g
	}
	return false, err
}

func (l *fleetLoad) recover(inDoubt bool) (bool, error) {
	if inDoubt {
		l.inDoubt = l.g
	}
	if err := l.f.Remount(); err != nil {
		return false, fmt.Errorf("remount: %w", err)
	}
	if id := l.f.InDoubt(); len(id) != 0 {
		return false, fmt.Errorf("unresolved in-doubt after remount: %v", id)
	}
	return false, nil
}

// finish requires every participant to hold the last committed or the
// in-doubt generation, and all of them the same one.
func (l *fleetLoad) finish() error {
	var gens []int64
	for _, db := range l.dbs {
		s, err := l.f.Begin(db, true)
		if err != nil {
			return err
		}
		g, err := generation(s.Query, 1)
		if err != nil {
			_ = s.Rollback()
			return fmt.Errorf("%s: read back: %w", db, err)
		}
		if err := s.Commit(); err != nil {
			return err
		}
		if err := recovered(g, l.committed, l.inDoubt); err != nil {
			return fmt.Errorf("%s: %w", db, err)
		}
		gens = append(gens, g)
	}
	if _, err := uniform(gens); err != nil {
		return fmt.Errorf("mixed outcome across participants %v: %w", l.dbs, err)
	}
	return nil
}

func (l *fleetLoad) arm(n int64) {
	l.cutAt = 0
	if n > 0 {
		l.cutAt = l.stages + n
	}
}

func (l *fleetLoad) ops() int64 { return l.stages }
func (l *fleetLoad) devices() []*storage.Device {
	var out []*storage.Device
	for _, st := range l.f.Stacks() {
		out = append(out, st.Device)
	}
	return out
}
func (l *fleetLoad) stop() error { return nil }
func (l *fleetLoad) close() {
	if l.f != nil {
		_ = l.f.Close()
	}
}
