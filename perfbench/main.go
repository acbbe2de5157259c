// Command perfbench is the repository's benchmark. It builds one of
// three workloads on the simulated X-FTL stack, times a window of it
// from outside the program (wall clock around the public calls, deltas
// of each layer's public counters, and a CPU profile in the traced
// run), checks the program's outputs, and prints a JSON line of details
// (environment, inputs, timings with sample counts) followed by the
// JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload synth-xftl --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced window, plus
// the tracing overhead against an untraced window of the same set-up.
// BENCHMARK.json at the repository root lists both and says why each
// workload was chosen.
package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// instance is one set-up workload, ready to drive.
type instance interface {
	// run drives the workload for d. A non-nil spans log records the
	// benchmark's calls into each layer.
	run(d time.Duration, spans *spanLog) (*window, error)
	// probe names the counters of the layers under the workload.
	probe() probe
	// check verifies the program's outputs against the benchmark's model.
	check() error
	// inputs reports the workload's fixed inputs for the result record.
	inputs() map[string]any
	close()
}

// workload is one of the benchmark's workloads; BENCHMARK.json says
// why each was chosen.
type workload struct {
	name string
	// warm is the discarded warm-up that precedes every timed window.
	warm time.Duration
	// setups is how many set-ups an untraced run times for the median
	// it reports: more where a set-up is short, so that scheduling
	// noise is a smaller share of the median.
	setups int
	setup  func(seed int64, tiny bool) (instance, error)
}

var workloads = []workload{
	{"synth-xftl", 2 * time.Second, 3, setupSynth},
	{"kv-mvcc", time.Second, 5, setupKV},
	{"serve-mixed", 3 * time.Second, 9, setupServe},
}

// window is what one timed run of a workload measured.
type window struct {
	wall              time.Duration
	ops               int64 // committed transactions or served requests
	attempted, failed int64
	read, write       samples
	// detail holds workload-specific results for the result record.
	detail map[string]any
	// layer holds workload-specific per-layer metrics.
	layer map[string]float64
	// readOps marks reads as operations of their own rather than
	// statements inside the write transactions.
	readOps bool
}

// cost is the window's wall time per operation, the figure the tracing
// overhead compares.
func (w *window) cost() float64 {
	return w.wall.Seconds() / float64(w.ops)
}

// done closes a closed-loop window: every operation was attempted and
// committed.
func (w *window) done(start time.Time) *window {
	w.wall = time.Since(start)
	w.attempted = w.ops
	return w
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s":             "s",
	"ops_per_s":           "tx/s",
	"read_p50_us":         "us",
	"write_p50_us":        "us",
	"heap_peak_mb":        "MiB",
	"sim_ms_per_op":       "ms",
	"flash_writes_per_op": "pages",
}

// layerUnit gives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	_, m, _ := strings.Cut(name, ".")
	switch {
	case strings.HasSuffix(m, "_us_per_op"), strings.HasSuffix(m, "_us"):
		return "us"
	case strings.HasSuffix(m, "_per_kop"):
		return "1/kop"
	case strings.HasSuffix(m, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(m, "_per_op"), strings.HasSuffix(m, "_per_commit"):
		return "count/op"
	case m == "max_rate_at_slo":
		return "req/s"
	case m == "mean_depth":
		return "cmds"
	}
	return "ratio"
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool // self-test size
	setups   int  // set-ups whose median is setup_s; 0: the workload's
	out      string
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "synth-xftl", "workload to run: synth-xftl, kv-mvcc, serve-mixed or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&secs, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced window")
	flag.StringVar(&cfg.out, "out", "", "directory for full result records (empty: none)")
	loadgenAddr := flag.String("loadgen", "", "run as the serve-mixed load generator against this address (internal)")
	flag.Parse()
	if *loadgenAddr != "" {
		if err := loadgenMain(*loadgenAddr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace != 0

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		rec, err := runBench(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := emit(c, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// record is the full result of one run: the contract line plus the
// environment, fixed inputs and details needed to compare it with any
// other run.
type record struct {
	Result  result             `json:"result"`
	Env     map[string]any     `json:"env"`
	Detail  map[string]any     `json:"detail"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Spans   *spanLog           `json:"-"`
	CheckOK string             `json:"check"`
}

func emit(cfg config, rec *record) error {
	if cfg.out != "" {
		if err := writeRecord(cfg, rec); err != nil {
			return err
		}
	}
	detail, err := json.Marshal(map[string]any{"workload": cfg.workload, "env": rec.Env, "detail": rec.Detail, "check": rec.CheckOK})
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, line)
	return nil
}

// writeRecord writes the run's record, and the traced run's spans, to
// the output directory.
func writeRecord(cfg config, rec *record) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%v", cfg.workload, cfg.seed, cfg.trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if rec.Spans == nil {
		return nil
	}
	// A traced window holds up to a few million spans; gzip keeps the
	// file to a few megabytes.
	names, err := json.Marshal(spanNames)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	fmt.Fprintf(zw, "{\"names\":%s,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[", names)
	for i, s := range rec.Spans.s {
		if i > 0 {
			zw.Write([]byte{','})
		}
		fmt.Fprintf(zw, "[%d,%d,%d,%d]", s.Name, s.Start, s.End, s.Parent)
	}
	io.WriteString(zw, "]}\n")
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json.gz", buf.Bytes(), 0o644)
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runBench sets the workload up, warms it, measures one window (two in
// the traced run: untraced, then traced), and checks the outputs.
func runBench(cfg config) (*record, error) {
	wl, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	reps := cfg.setups
	if reps == 0 {
		reps = wl.setups
	}
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		inst, err = wl.setup(cfg.seed, cfg.tiny)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	warm := wl.warm
	if cfg.tiny {
		warm /= 10
	}
	if _, err := inst.run(warm, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	pr := inst.probe()

	rec := &record{Env: environment(cfg), Detail: map[string]any{}}
	rec.Env["inputs"] = inst.inputs()
	rec.Env["setups"] = setups
	runtime.GC()
	a := pr.read()
	smp := startSampler(pr.st.Clock)
	w, err := inst.run(cfg.seconds, nil)
	peak, marks := smp.stop()
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	b := pr.read()
	if w.ops == 0 {
		return nil, errors.New("window completed no operations")
	}
	rec.Detail["window"] = windowDetail(w)

	res := result{Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		put := func(name string, v float64) { res.Metrics[name] = metric{v, units[name]} }
		f := steady(marks, w)
		put("setup_s", median(setups))
		put("ops_per_s", f.opsPerS)
		put("read_p50_us", f.readP50)
		put("write_p50_us", f.writeP50)
		put("heap_peak_mb", float64(peak)/(1<<20))
		put("sim_ms_per_op", f.simMSPerOp)
		put("flash_writes_per_op", float64(b.flash.PageWrites-a.flash.PageWrites)/float64(w.ops))
		rec.Detail["whole_window"] = map[string]float64{
			"ops_per_s":     float64(w.ops) / w.wall.Seconds(),
			"sim_ms_per_op": float64(b.sim-a.sim) / float64(time.Millisecond) / float64(w.ops),
		}
	} else {
		// The traced window follows the untraced one on the same set-up;
		// the difference in cost per operation is the tracing overhead.
		base := w.cost()
		spans := newSpanLog()
		var prof bytes.Buffer
		runtime.GC()
		a = pr.read()
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		tw, err := inst.run(cfg.seconds, spans)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, fmt.Errorf("traced window: %w", err)
		}
		b = pr.read()
		if tw.ops == 0 {
			return nil, errors.New("traced window completed no operations")
		}
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		att := attribute(p)
		rec.Layers = perLayer(a, b, tw.ops, att, spans)
		for k, v := range tw.layer {
			rec.Layers[k] = v
		}
		rec.Layers["bench.trace_overhead_frac"] = tw.cost()/base - 1
		// Tail latencies vary too much from run to run on a small shared
		// host to gate on; the traced run reports them unbounded.
		rec.Layers["bench.read_p99_us"] = tw.read.summary().P99us
		rec.Layers["bench.write_p99_us"] = tw.write.summary().P99us
		rec.Spans = spans
		rec.Detail["traced_window"] = windowDetail(tw)
		rec.Detail["profile_ms"] = float64(att.totalNS) / 1e6
		res.Attempted += tw.attempted
		res.Failed += tw.failed
	}
	// An open-loop workload then probes its rate ladder for the highest
	// rate that meets its objective.
	if l, ok := inst.(interface {
		ladder() (int, []*rungResult, error)
	}); ok {
		maxRate, rungs, err := l.ladder()
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		rec.Detail["ladder"], rec.Detail["max_rate_at_slo"] = rungs, maxRate
		if cfg.trace {
			rec.Layers["server.max_rate_at_slo"] = float64(maxRate)
			for _, rr := range rungs {
				if rr.Rate == serveRefRate {
					rec.Layers["bench.gen_late_p99_us"] = rr.Late.P99us
				}
			}
		}
	}
	for k, v := range rec.Layers {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	if err := inst.check(); err != nil {
		rec.CheckOK = err.Error()
	} else {
		res.Correct = true
		rec.CheckOK = "ok"
	}
	rec.Result = res
	return rec, nil
}

// profileHz is the CPU-profile sampling rate of the traced window,
// raised from the default 100 Hz so that a window of a few seconds
// gives the smaller layers enough samples. Setting it prints a harmless
// "cannot set cpu profile rate" warning when pprof then asks for 100 Hz.
const profileHz = 500

func windowDetail(w *window) map[string]any {
	d := map[string]any{
		"wall_s":    w.wall.Seconds(),
		"ops":       w.ops,
		"attempted": w.attempted,
		"failed":    w.failed,
		"fail_frac": float64(w.failed) / float64(max(w.attempted, 1)),
		"read":      w.read.summary(),
		"write":     w.write.summary(),
	}
	for k, v := range w.detail {
		d[k] = v
	}
	return d
}

// median is the median of v, 0 when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// environment records what a result depends on besides the code: the
// toolchain, the machine's parallelism and the inputs' seed.
func environment(cfg config) map[string]any {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     "unknown",
		"source":     sourceDigest("."),
		"start":      time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	return env
}

// sourceDigest hashes the Go sources and module files under root, so
// results from checkouts without version control still name the code
// they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
