package torture

import (
	"slices"
	"strings"
	"testing"
	"time"

	xftl "repro"
	"repro/internal/nand"
)

// leg returns the torture table's leg whose name starts with prefix.
func leg(t *testing.T, quick bool, prefix string) Leg {
	t.Helper()
	for _, l := range Legs(quick, 0, 0) {
		if strings.HasPrefix(l.Name, prefix) {
			return l
		}
	}
	t.Fatalf("no leg named %q", prefix)
	return Leg{}
}

func runLeg(t *testing.T, l Leg) *Report {
	t.Helper()
	rep, err := l.Run(nil)
	if err != nil {
		t.Fatalf("%v (report %s)", err, rep)
	}
	t.Logf("%s %s", l.Name, rep)
	return rep
}

// TestLegsReportSeeds runs every leg of the quick table and checks
// each summary names exactly its seed grid, so any failing line is
// reproducible with -seed.
func TestLegsReportSeeds(t *testing.T) {
	for _, l := range Legs(true, 0, 0) {
		t.Run(strings.TrimRight(l.Name, ": "), func(t *testing.T) {
			if rep := runLeg(t, l); !slices.Equal(rep.Seeds, l.Seeds) {
				t.Fatalf("report names seeds %v, want %v", rep.Seeds, l.Seeds)
			}
		})
	}
}

// TestDeviceSweep is the acceptance sweep: >= 50 (seed, cut-point,
// fault-rate) combinations at the device command level, with zero
// uncorrectable-error escapes at the default ECC threshold.
func TestDeviceSweep(t *testing.T) {
	l := leg(t, false, "device sweep")
	if combos := len(l.Seeds) * len(l.cells); combos < 50 {
		t.Fatalf("sweep covers only %d combos, want >= 50", combos)
	}
	rep := runLeg(t, l)
	if rep.Flash.UncorrectableReads > 0 {
		t.Fatalf("uncorrectable-error escapes: %d", rep.Flash.UncorrectableReads)
	}
	if rep.Crashes == 0 || rep.InDoubt == 0 {
		t.Fatalf("sweep exercised no crashes or no in-doubt commits: %s", rep)
	}
	if rep.Flash.GCRuns == 0 || rep.Flash.RetiredBlocks == 0 {
		t.Fatalf("sweep exercised no GC or no block retirement: %s", rep)
	}
}

// TestSQLTorture runs the full-stack workload (SQLite -> simfs ->
// device) under injected crashes and faults in all three journal
// modes, checking committed-durable / uncommitted-discarded through
// SQL queries after every recovery.
func TestSQLTorture(t *testing.T) {
	for _, mode := range journalModes {
		l := leg(t, testing.Short(), "sql "+mode.String())
		if rep := runLeg(t, l); rep.Crashes == 0 {
			t.Errorf("%s: no crashes injected across %d seeds", mode, len(l.Seeds))
		}
	}
}

// TestSQLTortureCutsOnly isolates the power-cut machinery from the
// fault model: ideal flash, aggressive cut cadence.
func TestSQLTortureCutsOnly(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rep, _, err := explore(&sqlLoad{mode: xftl.ModeRollback}, seed, plan{txns: sqlTxns, every: 1500})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Crashes == 0 {
			t.Errorf("seed %d: no crashes injected", seed)
		}
	}
}

// TestMetaCorruptionSweep is the self-healing acceptance sweep: after
// every injected power cut, every persisted copy of the mapping table
// (or, separately, the bad-block table) is corrupted or erased, and
// recovery must restore all committed transactions from per-page OOB
// records alone — in the raw device workload and through SQLite in all
// three journal modes.
func TestMetaCorruptionSweep(t *testing.T) {
	rep := runLeg(t, leg(t, testing.Short(), "meta sweep"))
	if rep.Crashes == 0 {
		t.Fatalf("meta sweep injected no crashes: %s", rep)
	}
	if rep.Flash.ScanRecoveries == 0 {
		t.Fatalf("meta sweep never took the scan path: %s", rep)
	}
	if rep.Flash.MetaCRCFailures == 0 {
		t.Fatalf("meta sweep never tripped a CRC rejection: %s", rep)
	}
}

// TestWornOutStopsGracefully drives a device into spare exhaustion
// with an erase-fail-heavy fault model (every failed erase retires a
// block against the 3-block spare reserve) and checks the run ends
// with the typed worn-out signal rather than an invariant violation,
// with every committed page still readable.
func TestWornOutStopsGracefully(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		w := &deviceLoad{fault: &nand.FaultModel{Seed: seed, EraseFailProb: 0.05, ECCBits: 8}}
		rep, _, err := explore(w, seed, plan{txns: 4000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.WornOut > 0 {
			if rep.Flash.RetiredBlocks == 0 {
				t.Fatalf("seed %d: worn out with no retirements: %s", seed, rep)
			}
			t.Logf("seed %d wore out after %d txns: %s", seed, rep.Transactions, rep)
			return
		}
	}
	t.Fatal("no seed exhausted the spare reserve with EraseFailProb=0.05")
}

// TestChaosSweep is the degraded-mode acceptance sweep: transient
// interface faults, die hangs, command deadlines/retries, channel
// quarantine and mid-storm power cuts, all at once, with the full
// recovery invariants asserted after every crash. The sweep is
// deterministic (all randomness seeded, all time virtual), so these
// exact combinations pass or fail reproducibly.
func TestChaosSweep(t *testing.T) {
	l := leg(t, testing.Short(), "chaos sweep")
	rep := runLeg(t, l)
	// The plane must be observable end to end: faults injected, retries
	// issued, deadlines tripped.
	if rep.Flash.TransientFaults == 0 {
		t.Error("no transient faults injected")
	}
	if rep.Retries == 0 {
		t.Error("no queue retries observed")
	}
	if rep.Timeouts == 0 {
		t.Error("no command timeouts observed despite hang injection")
	}
	if rep.Crashes == 0 {
		t.Error("no mid-storm power cuts tripped")
	}
	if len(rep.Seeds) != len(l.Seeds) {
		t.Errorf("report records seeds %v, want all of %v", rep.Seeds, l.Seeds)
	}
}

// TestChaosQuarantine drives a sustained one-die error storm hard
// enough to trip quarantine, and requires the run to survive it with
// the invariants intact and the episode visible in the counters.
func TestChaosQuarantine(t *testing.T) {
	// Storm one unit relentlessly: short deterministic hang cadence so
	// read timeouts pile onto the same die inside one health window.
	w := &deviceLoad{chaos: true, hangEvery: 5, hangStall: 30 * time.Millisecond}
	rep, _, err := explore(w, 7, plan{txns: 400})
	if err != nil {
		t.Fatalf("%v (report %s)", err, rep)
	}
	t.Logf("quarantine storm: %s", rep)
	if rep.Timeouts == 0 {
		t.Fatal("storm produced no command timeouts")
	}
	if rep.QuarantineTrips == 0 {
		t.Fatal("storm never tripped quarantine")
	}
	if rep.Committed == 0 {
		t.Fatal("no transaction committed through the storm")
	}
}

// TestFleetSweepQuick runs one seed of the fleet 2PC leg: every crash
// stage of a 3-shard cross-shard commit, verified all-or-nothing after
// recovery.
func TestFleetSweepQuick(t *testing.T) {
	rep := runLeg(t, leg(t, true, "fleet 2pc"))
	if rep.Crashes == 0 || rep.InDoubt == 0 {
		t.Fatalf("sweep tripped no crashes: %s", rep)
	}
	if f := rep.Flash; f.PageWrites == 0 || f.PageReads == 0 {
		t.Fatalf("report carries no flash counts: %s", rep)
	}
}
