package torture

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	xftl "repro"
)

// A Leg is one summary line of a torture run: a grid of explorer runs
// over a seed list, aggregated into one Report.
type Leg struct {
	Name  string  // the line's label, as printed
	Seeds []int64 // the seed grid; the report must name exactly these
	cells []cell  // the runs per seed
	check func(*Report) error
}

// A cell is one point of a leg's grid: a workload under a plan.
type cell struct {
	name string // grid coordinates, for progress lines and errors
	w    Workload
	plan plan
}

var journalModes = []xftl.Mode{xftl.ModeRollback, xftl.ModeWAL, xftl.ModeXFTL}

// Legs is the torture run's leg table, in print order. quick trims each
// seed grid to its smoke size; a non-zero seed replaces every grid with
// that one seed, reproducing a failing summary line; a non-zero faults
// replaces the device sweep's fault column and the SQL arms' fault
// scale.
func Legs(quick bool, seed int64, faults float64) []Leg {
	seeds := func(full, smoke int) []int64 {
		if seed != 0 {
			return []int64{seed}
		}
		if quick {
			full = smoke
		}
		out := make([]int64, full)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	scales, sqlScale := []float64{0, 60, 150}, float64(sqlFaultScale)
	if faults > 0 {
		scales, sqlScale = []float64{0, faults}, faults
	}

	// The acceptance sweep: seeds x cut cadences x fault scales,
	// including cut-only and fault-only columns.
	var device []cell
	for _, cut := range []int64{0, 90, 230} {
		for _, scale := range scales {
			device = append(device, cell{fmt.Sprintf("cut=%d scale=%g", cut, scale),
				&deviceLoad{scale: scale}, plan{txns: deviceTxns, every: cut}})
		}
	}
	legs := []Leg{{Name: "device sweep:", Seeds: seeds(6, 2), cells: device}}

	for _, mode := range journalModes {
		legs = append(legs, Leg{Name: fmt.Sprintf("sql %-5s:", mode), Seeds: seeds(6, 2), cells: []cell{
			{"", &sqlLoad{mode: mode, scale: sqlScale}, plan{txns: sqlTxns, every: sqlCutEvery[mode]}},
		}})
	}

	for _, l := range []struct {
		name string
		kind concArm
	}{{"mvcc sessions:", mvccSessions}, {"mvcc pooled:  ", mvccPooled}, {"wal readers:  ", walReaders}} {
		legs = append(legs, Leg{Name: l.name, Seeds: seeds(6, 2), cells: []cell{
			{"", &concLoad{kind: l.kind}, plan{txns: concTxns, every: concCutEvery, once: true}},
		}})
	}

	legs = append(legs, Leg{Name: "fleet 2pc:   ", Seeds: seeds(4, 1), cells: []cell{
		{"", &fleetLoad{}, plan{txns: victimTxn, all: true}},
	}})

	// Self-healing recovery: after every cut, every persisted copy of
	// the mapping table (or the bad-block table) is corrupted or erased,
	// and recovery must restore every committed transaction from the
	// per-page OOB records alone. Ideal flash isolates metadata
	// destruction from media faults, so every scan fallback is
	// attributable.
	var meta []cell
	for _, slot := range []string{"map", "bbt"} {
		for _, erase := range []bool{false, true} {
			at := fmt.Sprintf("slot=%s erase=%v", slot, erase)
			meta = append(meta, cell{at, &deviceLoad{},
				plan{txns: deviceTxns, every: deviceCutEvery, corrupt: slot, erase: erase}})
			for _, mode := range journalModes {
				meta = append(meta, cell{at + " mode=" + mode.String(), &sqlLoad{mode: mode},
					plan{txns: sqlTxns, every: sqlCutEvery[mode], corrupt: slot, erase: erase}})
			}
		}
	}
	legs = append(legs, Leg{Name: "meta sweep:  ", Seeds: seeds(3, 1), cells: meta})

	// The error storm: transient interface faults, command deadlines
	// with bounded retry, channel quarantine and (per column) die hangs,
	// with power cuts landing mid-storm.
	chaosTxns := deviceTxns
	if quick {
		chaosTxns = 120
	}
	var chaos []cell
	for _, scale := range []float64{0, 60} {
		for _, hang := range []bool{false, true} {
			d := &deviceLoad{scale: scale, chaos: true}
			if hang {
				d.hangEvery, d.hangStall = chaosHangEvery, chaosHangStall
			}
			chaos = append(chaos, cell{fmt.Sprintf("scale=%g hang=%v", scale, hang), d,
				plan{txns: chaosTxns, every: deviceCutEvery}})
		}
	}
	legs = append(legs, Leg{Name: "chaos sweep:", Seeds: seeds(3, 1), cells: chaos, check: stormed})

	// Exhaustive commit-window cuts: the last transaction's commit is cut
	// at every NAND op of its window, each cut on a fresh stack replayed
	// to it, and the in-doubt outcome must be atomic.
	commits := []cell{{"device", &deviceLoad{}, plan{txns: victimTxn, all: true}}}
	for _, mode := range journalModes {
		commits = append(commits, cell{"mode=" + mode.String(), &sqlLoad{mode: mode}, plan{txns: victimTxn, all: true}})
	}
	return append(legs, Leg{Name: "commit cuts:", Seeds: seeds(3, 1), cells: commits})
}

// victimTxn is the transaction whose commit an exhaustive plan cuts:
// the first three build history that recovery must preserve.
const victimTxn = 4

// stormed fails a chaos leg whose storm never stormed: injected
// interface faults with no retries would mean the plane is wired to
// nothing.
func stormed(r *Report) error {
	if r.Flash.TransientFaults == 0 {
		return errors.New("injected no transient faults (plane inert?)")
	}
	if r.Retries == 0 {
		return errors.New("observed transient faults but zero queue retries")
	}
	return nil
}

// Run executes the leg's grid, seed by seed, failing on the first
// invariant violation. progress, when non-nil, receives one line per
// cell.
func (l Leg) Run(progress func(format string, args ...any)) (*Report, error) {
	name := strings.TrimRight(l.Name, ": ")
	agg := &Report{}
	armed := false
	for _, seed := range l.Seeds {
		for _, c := range l.cells {
			armed = armed || c.plan.every > 0 || c.plan.all
			rep, err := c.run(seed)
			agg.add(rep)
			if err != nil {
				return agg, fmt.Errorf("%s seed=%d %s: %w", name, seed, c.name, err)
			}
			if progress != nil {
				progress("%s seed=%d %s %s", name, seed, c.name, rep)
			}
		}
	}
	if !slices.Equal(agg.Seeds, l.Seeds) {
		return agg, fmt.Errorf("%s: report names seeds %v, want %v", name, agg.Seeds, l.Seeds)
	}
	if armed && agg.Crashes == 0 {
		return agg, fmt.Errorf("%s: armed power cuts, none tripped", name)
	}
	if l.check != nil {
		if err := l.check(agg); err != nil {
			return agg, fmt.Errorf("%s: %w", name, err)
		}
	}
	return agg, nil
}

// run executes the cell once or, under an exhaustive plan, measures
// the last commit's window on a replay without a cut and then cuts it
// at every point in turn, each on a fresh stack.
func (c cell) run(seed int64) (*Report, error) {
	rep, window, err := explore(c.w, seed, c.plan)
	if !c.plan.all || err != nil {
		return rep, err
	}
	agg := &Report{}
	for p := c.plan; p.at < window; {
		p.at++
		rep, _, err := explore(c.w, seed, p)
		agg.add(rep)
		if err != nil {
			return agg, fmt.Errorf("cut point %d of %d: %w", p.at, window, err)
		}
	}
	return agg, nil
}
