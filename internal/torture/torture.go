// Package torture is the crash/fault torture harness. One explorer
// drives every arm: it builds the arm's stack, arms power cuts, runs the
// transactions, classifies every failure, remounts and asks the arm's
// oracle to judge the recovered state against the two recovery
// invariants of the paper's §5.4:
//
//  1. every committed transaction is fully durable, and
//  2. every uncommitted transaction is fully discarded.
//
// A transaction whose commit command was interrupted by the power cut
// is in-doubt: either outcome is accepted, but it must be atomic
// (all-old or all-new, never a mix).
//
// The arms are Workloads: device pages against a byte-exact page oracle
// (device.go), the synth-style SQL workload in every journal mode
// (sql.go), snapshot readers racing a generation writer on the MVCC
// session layer, the reader pool and the WAL reader baseline (conc.go),
// and cross-shard 2PC on a fleet (fleet.go). A plan decides where power
// dies: a random cadence re-armed after every recovery, or every cut
// point of one commit in turn. Legs (legs.go) group runs into the
// summary lines of xftlbench -torture.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Report aggregates what one run (or a whole leg) observed.
type Report struct {
	Transactions int // transactions attempted
	Committed    int
	Aborted      int
	InDoubt      int // commit interrupted; outcome verified atomic
	Revoked      int // rollback-journal commits undone by the DELETE-mode durability window
	Crashes      int // injected power cuts that tripped
	Runs         int // explorer runs executed
	WornOut      int // runs stopped early because the spare reserve ran out

	// Seeds records every workload/fault seed that contributed to this
	// report, so a failing line is reproducible from its summary.
	Seeds []int64

	// Degraded-mode counters (chaos runs; zero elsewhere).
	Retries         int64 // queue command attempts reissued
	Timeouts        int64 // command attempts that overran their deadline
	QuarantineTrips int64 // quarantine episodes opened
	Readmits        int64 // quarantined units probed back into service

	Flash metrics.FlashSnapshot
}

func (r *Report) String() string {
	s := fmt.Sprintf("txns=%d committed=%d aborted=%d indoubt=%d revoked=%d crashes=%d runs=%d",
		r.Transactions, r.Committed, r.Aborted, r.InDoubt, r.Revoked, r.Crashes, r.Runs)
	if r.WornOut > 0 {
		s += fmt.Sprintf(" wornout=%d", r.WornOut)
	}
	if len(r.Seeds) > 0 {
		s += fmt.Sprintf(" seeds=%v", r.Seeds)
	}
	if r.Retries+r.Timeouts+r.QuarantineTrips > 0 {
		s += fmt.Sprintf(" retries=%d timeouts=%d quarantines=%d readmits=%d",
			r.Retries, r.Timeouts, r.QuarantineTrips, r.Readmits)
	}
	if r.Flash.ImageRecoveries+r.Flash.ScanRecoveries > 0 {
		s += fmt.Sprintf(" recovery=image:%d/scan:%d", r.Flash.ImageRecoveries, r.Flash.ScanRecoveries)
	}
	return s + " [" + r.Flash.String() + "]"
}

// add folds one run's counts into an aggregate report.
func (r *Report) add(o *Report) {
	r.Transactions += o.Transactions
	r.Committed += o.Committed
	r.Aborted += o.Aborted
	r.InDoubt += o.InDoubt
	r.Revoked += o.Revoked
	r.Crashes += o.Crashes
	r.Runs += o.Runs
	r.WornOut += o.WornOut
	for _, s := range o.Seeds {
		if !slices.Contains(r.Seeds, s) {
			r.Seeds = append(r.Seeds, s)
		}
	}
	r.Retries += o.Retries
	r.Timeouts += o.Timeouts
	r.QuarantineTrips += o.QuarantineTrips
	r.Readmits += o.Readmits
	r.Flash = r.Flash.Add(o.Flash)
}

// A Workload is one torture arm: a stack, the transactions it runs and
// the oracle that judges every recovery. The explorer owns the rest:
// cut arming, power-cut classification, metadata damage, and seed and
// attempt bookkeeping.
type Workload interface {
	// setup builds a fresh stack for seed, commits the baseline and
	// returns the RNG the workload draws from. Random cuts draw from it
	// too, so a seed replays the same cut points.
	setup(seed int64) (*rand.Rand, error)
	// exec runs transaction i up to, not including, its commit command.
	exec(i int) error
	// commit ends transaction i: it commits, or it aborts deliberately
	// (aborted = true; an error then means the abort was cut).
	commit(i int) (aborted bool, err error)
	// stop halts background activity (concurrent readers) and returns
	// the first invariant violation it caught.
	stop() error
	// recover brings the stack back after a power cut and checks what
	// it can: the open transaction must be gone or, when inDoubt, wholly
	// applied or wholly gone. revoked reports a recovered state that
	// lost the last commit, which rollback-journal mode allows.
	recover(inDoubt bool) (revoked bool, err error)
	// finish checks the final state with cuts disarmed.
	finish() error
	close()
	// arm cuts power at the n-th cut point from now (n <= 0 disarms);
	// ops counts the cut points passed so far: NAND operations, or 2PC
	// stages on a fleet.
	arm(n int64)
	ops() int64
	// devices lists the devices behind the workload, for metadata
	// damage and the report's flash counters.
	devices() []*storage.Device
}

// A plan decides how long a run is, where its power dies and what each
// cut destroys.
type plan struct {
	txns int // transactions attempted
	// every arms a cut 1..every cut points ahead at the start and again
	// after each recovery; 0 = no random cuts. once ends the run at its
	// first cut instead.
	every int64
	once  bool
	// all cuts the last transaction's commit at every point of its
	// window, one fresh run per point; at is the point of one such run.
	all bool
	at  int64
	// corrupt names a persisted metadata structure ("map" for the
	// mapping-table pages, or a meta slot such as "bbt") damaged on every
	// device after each cut, before recovery; erase erases its pages
	// instead of flipping bytes in place. Recovery must then take the
	// OOB scan path and, for in-place damage, reject pages by CRC.
	corrupt string
	erase   bool
}

// explorer is one run of a workload under a plan.
type explorer struct {
	plan
	w       Workload
	rep     *Report
	rng     *rand.Rand
	armedAt int64 // ops() at which the armed cut trips; 0 = none armed
	window  int64 // cut points inside the last transaction's commit
}

// explore runs w once under p. It returns the run's report and the
// number of cut points in the last transaction's commit.
func explore(w Workload, seed int64, p plan) (*Report, int64, error) {
	x := &explorer{plan: p, w: w, rep: &Report{Runs: 1, Seeds: []int64{seed}}}
	err := x.run(seed)
	w.close()
	return x.rep, x.window, err
}

func (x *explorer) run(seed int64) error {
	var err error
	if x.rng, err = x.w.setup(seed); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	x.arm()
	for i := 1; i <= x.txns; i++ {
		x.rep.Transactions++
		err := x.w.exec(i)
		inDoubt, aborted := false, false
		if err == nil {
			last := i == x.txns
			if last && x.at > 0 {
				x.cut(x.at)
			}
			start := x.w.ops()
			aborted, err = x.w.commit(i)
			inDoubt = err != nil && !aborted
			if last {
				x.window = x.w.ops() - start
				if x.at > 0 && err == nil {
					return fmt.Errorf("commit survived a power cut at point %d", x.at)
				}
			}
		}
		if errors.Is(err, storage.ErrWornOut) {
			// End of media life: writes are refused, but every committed
			// transaction must still read back (checked below).
			x.rep.WornOut++
			break
		}
		if err != nil {
			if err := x.crash(err, inDoubt); err != nil {
				return fmt.Errorf("txn %d: %w", i, err)
			}
			if x.once {
				break
			}
			x.arm()
			continue
		}
		if aborted {
			x.rep.Aborted++
		} else {
			x.rep.Committed++
		}
	}
	if err := x.w.stop(); err != nil {
		return err
	}
	if x.armedAt > 0 && x.w.ops() >= x.armedAt {
		// The cut tripped under a concurrent reader after the writer's
		// last transaction: recover from it like any other.
		if err := x.crash(nand.ErrPowerLost, false); err != nil {
			return err
		}
	}
	x.w.arm(0)
	if err := x.w.finish(); err != nil {
		return fmt.Errorf("final verify: %w", err)
	}
	for _, d := range x.w.devices() {
		x.rep.Flash = x.rep.Flash.Add(d.FlashStats().Snapshot())
		x.rep.Retries += d.Queue().Retries()
		x.rep.Timeouts += d.Queue().Timeouts()
		x.rep.QuarantineTrips += d.FTL().QuarantineTrips()
		x.rep.Readmits += d.FTL().QuarantineReadmits()
	}
	if n := x.rep.Flash.UncorrectableReads; n > 0 {
		return fmt.Errorf("uncorrectable-error escapes: %d reads exceeded the ECC threshold", n)
	}
	return nil
}

// arm schedules the next random cut, if the plan has a cadence.
func (x *explorer) arm() {
	if x.every > 0 {
		x.cut(1 + x.rng.Int63n(x.every))
	}
}

// cut arms power to die at the n-th cut point from now.
func (x *explorer) cut(n int64) {
	x.armedAt = x.w.ops() + n
	x.w.arm(n)
}

// powerLost reports whether err is the injected power cut surfacing
// through any layer of the stack.
func powerLost(err error) bool {
	return errors.Is(err, nand.ErrPowerLost) || errors.Is(err, core.ErrPowerCut) || errors.Is(err, shard.ErrCrashPoint)
}

// crash handles a failed command. Only a power cut is survivable: the
// plan's metadata damage is applied, the workload recovers and checks
// its oracle, and a damaged device must have recovered by OOB scan.
func (x *explorer) crash(cause error, inDoubt bool) error {
	if !powerLost(cause) {
		return fmt.Errorf("non-power fault escaped the stack: %w", cause)
	}
	x.rep.Crashes++
	x.armedAt = 0
	if err := x.w.stop(); err != nil {
		return err
	}
	devs := x.w.devices()
	damaged := make([]int, len(devs))
	if x.corrupt != "" {
		// Damage every persisted copy while the power is still off, so
		// recovery has nothing to mount but the per-page OOB records.
		for i, d := range devs {
			n, err := d.CorruptMeta(x.corrupt, x.erase)
			if err != nil && !errors.Is(err, ftl.ErrBadMetaSlot) {
				return fmt.Errorf("corrupt meta %q: %w", x.corrupt, err)
			}
			damaged[i] = n // ErrBadMetaSlot: slot not persisted yet, nothing to damage
		}
	}
	revoked, err := x.w.recover(inDoubt)
	if err != nil {
		return err
	}
	for i, d := range devs {
		if damaged[i] == 0 {
			continue
		}
		ri := d.LastRecovery()
		if ri.Mode != ftl.RecoveryScan {
			return fmt.Errorf("corrupted %d pages of %q yet recovery took the %v path (reason %q)",
				damaged[i], x.corrupt, ri.Mode, ri.Reason)
		}
		if !x.erase && ri.CRCFailures == 0 {
			return fmt.Errorf("silent acceptance: %d pages of %q corrupted in place, zero CRC rejections", damaged[i], x.corrupt)
		}
	}
	if inDoubt {
		x.rep.InDoubt++
	}
	if revoked {
		x.rep.Revoked++
	}
	return nil
}

// oneDevice is the cut plumbing of a workload on a single device.
type oneDevice struct{ dev *storage.Device }

func (o *oneDevice) arm(n int64)                { o.dev.PowerCutAfter(n) }
func (o *oneDevice) ops() int64                 { return o.dev.NANDOps() }
func (o *oneDevice) devices() []*storage.Device { return []*storage.Device{o.dev} }
func (o *oneDevice) stop() error                { return nil }
func (o *oneDevice) close()                     {}

// distinct draws n distinct values from draw.
func distinct[T comparable](n int, draw func() T) []T {
	out := make([]T, 0, n)
	for len(out) < n {
		if v := draw(); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
