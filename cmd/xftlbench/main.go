// Command xftlbench regenerates every table and figure of the paper's
// evaluation section (§6). Each subcommand runs one experiment and
// prints the corresponding table; "all" runs everything in paper order.
//
// Usage:
//
//	xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-json PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate|mtenant|rwconc|fleet|perf}
//	xftlbench [-quick] -torture
//
// -quick shrinks workloads for a fast smoke run; the published numbers
// in EXPERIMENTS.md come from full runs (no -quick). -faults N runs the
// chosen experiment on faulty flash (the wear-correlated NAND fault
// model scaled by N; 1 = realistic MLC rates). -torture skips the paper
// experiments and runs every leg of the crash/fault torture table: the
// device sweep of seeds x cut points x fault rates, full-SQL runs in all
// three journal modes, the MVCC, reader-pool and WAL reader races, fleet
// 2PC, metadata corruption, the degraded-mode error storm, and a cut at
// every NAND op of one commit per seed (device and all three journal
// modes). Each leg checks committed-durable / uncommitted-discarded
// after every recovery and prints one summary line naming its seeds.
//
// mtenant and rwconc are the beyond-the-paper legs (not part of "all",
// which reproduces the paper's figures only): mtenant is the NCQ
// multi-tenant sweep across channel counts and queue depths; rwconc
// runs MVCC snapshot readers against a streaming writer and compares
// reader throughput with the serialized rollback-journal baseline.
// -seed N overrides every workload generator's RNG seed (0 keeps the
// published defaults); the seed is recorded in the -json document.
// -json PATH additionally writes every table that was printed — plus
// the typed multi-tenant and rwconc points — as indented JSON.
// -trace PATH records cross-layer events during the experiments that
// support it (rwconc) and writes a Chrome trace-event JSON file that
// loads directly into Perfetto (ui.perfetto.dev) or chrome://tracing;
// a per-layer flame summary is printed to stderr.
//
// perf is the wall-clock leg: it times the standard rwconc and mtenant
// configurations with the host clock and reports simulator ops per
// wall second (tracked across runs as BENCH_10.json). -profile PATH
// writes a CPU profile of the whole invocation, viewable with
// go tool pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/torture"
	"repro/internal/trace"
)

func main() {
	os.Exit(benchMain())
}

// benchMain is main with an exit status, so deferred cleanup (the CPU
// profile writer) runs on every path.
func benchMain() int {
	quick := flag.Bool("quick", false, "run reduced workloads (smoke mode)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	faults := flag.Float64("faults", 0, "NAND fault-model scale (0 = ideal flash, 1 = realistic MLC rates)")
	tortureMode := flag.Bool("torture", false, "run the crash/fault torture harness instead of an experiment")
	seed := flag.Int64("seed", 0, "workload RNG seed override (0 = per-generator defaults)")
	shards := flag.Int("shards", 4, "maximum shard count for the fleet experiment (swept in powers of two from 1)")
	journal := flag.String("journal", "rbj", "rwconc baseline arm for the speedup comparison: rbj (serialized rollback journal) or wal (concurrent WAL readers)")
	recoveryScan := flag.Bool("recovery-scan", false, "run the recovery-hierarchy experiment: image fast path vs full-device OOB scan with the mapping image destroyed")
	jsonPath := flag.String("json", "", "also write machine-readable results (tables, ops, NAND counts, latency percentiles) to this path")
	tracePath := flag.String("trace", "", "record cross-layer events and write Chrome trace-event JSON (Perfetto-loadable) to this path")
	profilePath := flag.String("profile", "", "write a CPU profile of the whole invocation to this path (go tool pprof)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xftlbench [-quick] [-quiet] [-faults N] [-seed N] [-json PATH] [-trace PATH] [-profile PATH] {all|fig5|table1|fig6|table2|fig7|table3|table4|fig8|fig9|table5|ablate|mtenant|rwconc|fleet|perf}\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] [-seed N] -torture\n")
		fmt.Fprintf(os.Stderr, "       xftlbench [-quick] -recovery-scan\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -profile: %v\n", err)
			_ = f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "[xftlbench] wrote CPU profile to %s\n", *profilePath)
		}()
	}
	wallStart := time.Now()
	if *tortureMode {
		if flag.NArg() != 0 {
			flag.Usage()
			return 2
		}
		if err := runTorture(*quick, *quiet, *faults, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -torture: %v\n", err)
			return 1
		}
		return 0
	}
	if *recoveryScan {
		if flag.NArg() != 0 {
			flag.Usage()
			return 2
		}
		opts := bench.Options{Quick: *quick, FaultScale: *faults, Seed: *seed}
		if !*quiet {
			opts.Progress = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "[xftlbench] "+format+"\n", args...)
			}
		}
		runs, err := bench.RunRecoveryScan(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -recovery-scan: %v\n", err)
			return 1
		}
		t := bench.RecoveryScanTable(runs)
		fmt.Println(t)
		if *jsonPath != "" {
			doc := &bench.JSONDoc{Tool: "xftlbench", Quick: *quick, Seed: *seed, FaultScale: *faults}
			doc.Experiments = append(doc.Experiments, bench.JSONExperiment{
				Name: "recovery-scan", Tables: []*bench.Table{t},
			})
			doc.WallSeconds = time.Since(wallStart).Seconds()
			if err := bench.WriteJSON(*jsonPath, doc); err != nil {
				fmt.Fprintf(os.Stderr, "xftlbench -json: %v\n", err)
				return 1
			}
		}
		return 0
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	opts := bench.Options{Quick: *quick, FaultScale: *faults, Seed: *seed}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[xftlbench] "+format+"\n", args...)
		}
	}
	if *tracePath != "" {
		opts.Trace = trace.New()
	}
	what := flag.Arg(0)
	doc := &bench.JSONDoc{Tool: "xftlbench", Quick: *quick, Seed: *seed, FaultScale: *faults}
	opts.FleetShards = *shards
	if *journal != "rbj" && *journal != "wal" {
		fmt.Fprintf(os.Stderr, "xftlbench: -journal must be rbj or wal, got %q\n", *journal)
		return 2
	}
	opts.Journal = *journal
	if err := run(what, opts, doc); err != nil {
		fmt.Fprintf(os.Stderr, "xftlbench %s: %v\n", what, err)
		return 1
	}
	if *jsonPath != "" {
		doc.WallSeconds = time.Since(wallStart).Seconds()
		if err := bench.WriteJSON(*jsonPath, doc); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -json: %v\n", err)
			return 1
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, opts.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "xftlbench -trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeTrace dumps the recorded events as Chrome trace-event JSON and
// prints the flame summary. A run that recorded nothing (an experiment
// without trace support) still produces a valid, empty trace file.
func writeTrace(path string, tr *trace.Tracer) error {
	if tr.Len() == 0 {
		fmt.Fprintf(os.Stderr, "[xftlbench] warning: no trace events recorded (only rwconc emits traces today)\n")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[xftlbench] wrote %d trace events to %s (load in ui.perfetto.dev)\n", tr.Len(), path)
	fmt.Fprint(os.Stderr, tr.FlameSummary())
	return nil
}

// run executes the requested experiment(s), printing each table and
// appending it to doc for -json output. "all" reproduces the paper's
// figures in order; mtenant is the beyond-the-paper NCQ sweep and must
// be requested by name.
func run(what string, opts bench.Options, doc *bench.JSONDoc) error {
	all := what == "all"
	did := false
	do := func(name string, fn func() error) error {
		if !all && what != name {
			return nil
		}
		did = true
		return fn()
	}
	emit := func(name string, mt *bench.MT, rw *bench.RWC, tables ...*bench.Table) {
		for _, t := range tables {
			fmt.Println(t)
		}
		doc.Experiments = append(doc.Experiments, bench.JSONExperiment{
			Name: name, Tables: tables, MultiTenant: mt, RWConc: rw,
		})
	}
	if err := do("fig5", func() error {
		f, err := bench.RunFig5(opts)
		if err != nil {
			return err
		}
		emit("fig5", nil, nil, f.Tables()...)
		return nil
	}); err != nil {
		return err
	}
	if err := do("table1", func() error {
		t1, err := bench.RunTable1(opts)
		if err != nil {
			return err
		}
		emit("table1", nil, nil, t1.Table())
		return nil
	}); err != nil {
		return err
	}
	if err := do("fig6", func() error {
		f, err := bench.RunFig6(opts)
		if err != nil {
			return err
		}
		emit("fig6", nil, nil, f.Tables()...)
		return nil
	}); err != nil {
		return err
	}
	var fig7 *bench.Fig7
	if err := do("fig7", func() error {
		f, err := bench.RunFig7(opts)
		if err != nil {
			return err
		}
		fig7 = f
		emit("fig7", nil, nil, f.Table())
		return nil
	}); err != nil {
		return err
	}
	if err := do("table2", func() error {
		if fig7 == nil && !all {
			// Census-only view; the measured row needs a fig7 replay.
			emit("table2", nil, nil, bench.Table2(nil))
			return nil
		}
		emit("table2", nil, nil, bench.Table2(fig7))
		return nil
	}); err != nil {
		return err
	}
	if err := do("table3", func() error {
		emit("table3", nil, nil, bench.Table3())
		return nil
	}); err != nil {
		return err
	}
	if err := do("table4", func() error {
		t4, err := bench.RunTable4(opts)
		if err != nil {
			return err
		}
		emit("table4", nil, nil, bench.Table3(), t4.Table())
		return nil
	}); err != nil {
		return err
	}
	if err := do("fig8", func() error {
		f, err := bench.RunFig8(opts)
		if err != nil {
			return err
		}
		emit("fig8", nil, nil, f.Table())
		return nil
	}); err != nil {
		return err
	}
	if err := do("fig9", func() error {
		f, err := bench.RunFig9(opts)
		if err != nil {
			return err
		}
		emit("fig9", nil, nil, f.Table())
		return nil
	}); err != nil {
		return err
	}
	if err := do("table5", func() error {
		runs, err := bench.RunTable5(opts)
		if err != nil {
			return err
		}
		emit("table5", nil, nil, bench.Table5Table(runs))
		return nil
	}); err != nil {
		return err
	}
	if err := do("ablate", func() error {
		runs, err := bench.Ablations(opts)
		if err != nil {
			return err
		}
		emit("ablate", nil, nil, bench.AblationTable(runs))
		return nil
	}); err != nil {
		return err
	}
	// mtenant and rwconc are deliberately excluded from "all": "all"
	// reproduces the paper's evaluation in paper order, and the NCQ
	// sweep and MVCC session layer are new work.
	if !all {
		if err := do("mtenant", func() error {
			mt, err := bench.RunMultiTenant(opts)
			if err != nil {
				return err
			}
			emit("mtenant", mt, nil, mt.Table())
			return nil
		}); err != nil {
			return err
		}
		if err := do("rwconc", func() error {
			rw, err := bench.RunRWConc(opts)
			if err != nil {
				return err
			}
			emit("rwconc", nil, rw, rw.Table())
			return nil
		}); err != nil {
			return err
		}
		if err := do("fleet", func() error {
			fb, err := bench.RunFleet(opts, opts.FleetShards)
			if err != nil {
				return err
			}
			t := fb.Table()
			fmt.Println(t)
			doc.Experiments = append(doc.Experiments, bench.JSONExperiment{
				Name: "fleet", Tables: []*bench.Table{t}, Fleet: fb,
			})
			return nil
		}); err != nil {
			return err
		}
		if err := do("perf", func() error {
			p, err := bench.RunPerf(opts)
			if err != nil {
				return err
			}
			t := p.Table()
			fmt.Println(t)
			doc.Experiments = append(doc.Experiments, bench.JSONExperiment{
				Name: "perf", Tables: []*bench.Table{t}, Perf: p,
			})
			return nil
		}); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

// runTorture runs every leg of the torture table in turn and prints
// one summary line per leg; see torture.Legs for what quick, faults and
// seed change. Every summary records the seeds it used, so -seed N
// reproduces a failing line.
func runTorture(quick, quiet bool, faults float64, seed int64) error {
	var progress func(format string, args ...any)
	if !quiet {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[torture] "+format+"\n", args...)
		}
	}
	for _, leg := range torture.Legs(quick, seed, faults) {
		rep, err := leg.Run(progress)
		if err != nil {
			return fmt.Errorf("%w (report %s)", err, rep)
		}
		fmt.Printf("%s %s\n", leg.Name, rep)
	}
	return nil
}
