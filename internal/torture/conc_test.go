package torture

import "testing"

// noCut is a concurrency shakeout without a cut: readers must never
// observe a torn or out-of-window view while the writer streams
// generations, and the final state is the writer's last generation
// (for the pool, served warm). Run under -race in CI.
func noCut(t *testing.T, kind concArm) {
	rep, _, err := explore(&concLoad{kind: kind}, 1, plan{txns: 20})
	if err != nil {
		t.Fatalf("report %s: %v", rep, err)
	}
	if rep.Committed != 20 || rep.Crashes != 0 {
		t.Fatalf("unexpected report: %s", rep)
	}
}

// withCuts cuts power mid-run across seeds: after recovery the database
// must read uniformly at the last committed (or in-doubt) generation.
func withCuts(t *testing.T, kind concArm) {
	crashes := 0
	for seed := int64(1); seed <= 4; seed++ {
		rep, _, err := explore(&concLoad{kind: kind}, seed, plan{txns: concTxns, every: concCutEvery, once: true})
		if err != nil {
			t.Fatalf("seed %d (report %s): %v", seed, rep, err)
		}
		crashes += rep.Crashes
	}
	if crashes == 0 {
		t.Fatal("no seed tripped the power cut; the test exercises nothing")
	}
}

func TestMVCCTortureNoCut(t *testing.T)    { noCut(t, mvccSessions) }
func TestMVCCTortureWithCuts(t *testing.T) { withCuts(t, mvccSessions) }

// The pooled arm keeps its manager across the remount: every pre-cut
// pooled connection must be invalidated on the first post-recovery
// checkout.
func TestPooledTortureNoCut(t *testing.T)    { noCut(t, mvccPooled) }
func TestPooledTortureWithCuts(t *testing.T) { withCuts(t, mvccPooled) }

// WAL concurrent readers hold captured log views while the writer
// appends and checkpoints behind them; log replay on reopen recovers.
func TestWALConcTortureNoCut(t *testing.T)    { noCut(t, walReaders) }
func TestWALConcTortureWithCuts(t *testing.T) { withCuts(t, walReaders) }
