package main

import (
	"bufio"
	"bytes"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	xftl "repro"
	"repro/internal/core"
	rmetrics "repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/readpool"
	"repro/internal/server"
)

// probe names the public counters a workload's layers expose. Fields
// a workload does not use stay nil.
type probe struct {
	st  *xftl.Stack
	mgr *mvcc.Manager
	srv *server.Server
}

// counters is one reading of every layer counter. Readings are taken
// only while the workload's clients are stopped, because the firmware
// statistics are not safe to read concurrently with device work.
type counters struct {
	sim   time.Duration
	flash rmetrics.FlashSnapshot
	host  rmetrics.HostSnapshot
	core  core.Stats

	readN, writeN     int64
	readSum, writeSum time.Duration
	depths            []int64

	writerWaits, busyTimeouts int64
	pool                      readpool.Stats
	stages                    map[string][2]float64 // stage -> {sum seconds, count}

	rt runtimeReading
}

func (p probe) read() counters {
	var c counters
	st := p.st
	c.sim = st.Clock.Now()
	c.flash = st.FlashStats().Snapshot()
	c.host = st.Host.Snapshot()
	if x := st.Device.XFTL(); x != nil {
		c.core = x.Stats()
	}
	q := st.Device.Queue()
	r, w := q.ReadLat.Snapshot(), q.WriteLat.Snapshot()
	c.readN, c.readSum = r.Count, r.Mean*time.Duration(r.Count)
	c.writeN, c.writeSum = w.Count, w.Mean*time.Duration(w.Count)
	if q.Depths != nil {
		c.depths = q.Depths.Snapshot()
	}
	if p.mgr != nil {
		c.writerWaits = p.mgr.Stats.WriterWaits.Load()
		c.busyTimeouts = p.mgr.Stats.BusyTimeouts.Load()
		c.pool, _ = p.mgr.PoolStats()
	}
	if p.srv != nil {
		c.stages = stageSums(p.srv)
	}
	c.rt = readRuntime()
	return c
}

// stageSums reads the _sum and _count series of the server's stage
// histograms from its Prometheus exposition.
func stageSums(srv *server.Server) map[string][2]float64 {
	var buf bytes.Buffer
	srv.WritePrometheus(&buf)
	out := map[string][2]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "xftl_stage_duration_seconds_")
		if !ok {
			continue
		}
		kind, rest, _ := strings.Cut(rest, `{stage="`)
		stage, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		e := out[stage]
		switch kind {
		case "sum":
			e[0] = v
		case "count":
			e[1] = v
		}
		out[stage] = e
	}
	return out
}

// runtimeReading is the Go runtime's own allocation and CPU accounting.
type runtimeReading struct {
	allocs, bytes            uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		allocs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(), idleCPU: s[4].Value.Float64(),
	}
}

// perLayer derives every per-layer metric from two counter readings
// around the traced window, its CPU attribution and its spans.
func perLayer(a, b counters, ops int64, att attribution, spans *spanLog) map[string]float64 {
	m := map[string]float64{}
	per := func(n int64) float64 { return float64(n) / float64(ops) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	for _, l := range layers {
		m[l+".cpu_us_per_op"] = float64(att.layerNS[l]) / 1e3 / float64(ops)
	}
	m["runtime.malloc_cpu_share"] = ratio(float64(att.mallocNS), float64(att.totalNS))
	m["runtime.allocs_per_op"] = per(int64(b.rt.allocs - a.rt.allocs))
	m["runtime.bytes_per_op"] = per(int64(b.rt.bytes - a.rt.bytes))
	busy := (b.rt.totalCPU - a.rt.totalCPU) - (b.rt.idleCPU - a.rt.idleCPU)
	m["runtime.gc_cpu_share"] = ratio(b.rt.gcCPU-a.rt.gcCPU, busy)

	fl := b.flash.Sub(a.flash)
	host := b.host.Sub(a.host)
	m["nand.programs_per_op"] = per(fl.PageWrites)
	m["nand.reads_per_op"] = per(fl.PageReads)
	m["nand.erases_per_op"] = per(fl.BlockErases)
	m["ftl.gc_runs_per_kop"] = 1000 * per(fl.GCRuns)
	m["ftl.write_amp"] = ratio(float64(fl.PageWrites), float64(host.TotalWrites()))
	m["core.images_per_commit"] = ratio(float64(b.core.TableImages-a.core.TableImages), float64(b.core.Commits-a.core.Commits))
	m["core.snap_old_hit_frac"] = ratio(float64(b.core.SnapOldHits-a.core.SnapOldHits), float64(b.core.SnapReads-a.core.SnapReads))
	m["ncq.read_wait_us"] = us(time.Duration(ratio(float64(b.readSum-a.readSum), float64(b.readN-a.readN))))
	m["ncq.write_wait_us"] = us(time.Duration(ratio(float64(b.writeSum-a.writeSum), float64(b.writeN-a.writeN))))
	var n, sum int64
	for i, c := range b.depths {
		if i < len(a.depths) {
			c -= a.depths[i]
		}
		n += c
		sum += c * int64(i+1)
	}
	m["ncq.mean_depth"] = ratio(float64(sum), float64(n))
	m["simfs.host_writes_per_op"] = per(host.TotalWrites())
	m["simfs.fsyncs_per_op"] = per(host.Fsyncs)
	m["pager.misses_per_op"] = per(host.Reads)

	m["mvcc.writer_waits_per_kop"] = 1000 * per(b.writerWaits-a.writerWaits)
	m["mvcc.busy_timeouts_per_kop"] = 1000 * per(b.busyTimeouts-a.busyTimeouts)
	hits, misses := b.pool.Hits-a.pool.Hits, b.pool.Misses-a.pool.Misses
	m["readpool.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["readpool.invalidations_per_kop"] = 1000 * per(b.pool.Invalidations-a.pool.Invalidations)
	for _, stage := range []string{"admission", "exec", "commit"} {
		sa, sb := a.stages[stage], b.stages[stage]
		m["server."+stage+"_mean_us"] = 1e6 * ratio(sb[0]-sa[0], sb[1]-sa[1])
	}

	m["sqlite.stmt_p50_us"] = spans.p50(spanStmt)
	m["sqlite.commit_p50_us"] = spans.p50(spanCommit)
	m["mvcc.begin_p50_us"] = spans.p50(spanMvccBegin)
	m["mvcc.commit_p50_us"] = spans.p50(spanMvccCommit)
	m["server.rtt_p50_us"] = spans.p50(spanRTT)
	// Open-loop results, set by the workloads that have them.
	m["bench.gen_late_p99_us"] = 0
	m["bench.fail_frac"] = 0
	m["server.max_rate_at_slo"] = 0
	return m
}
