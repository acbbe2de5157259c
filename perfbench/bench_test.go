package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/server"
)

// TestMain lets the test binary stand in for the benchmark binary when
// serve-mixed starts its load generator as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-loadgen" {
		if err := loadgenMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyConfig(name string, trace bool) config {
	return config{workload: name, seed: 7, seconds: time.Second, trace: trace, tiny: true, setups: 1}
}

// checkMetrics asserts that the result carries exactly the listed
// metrics, each with its listed unit and a finite value.
func checkMetrics(t *testing.T, rec *record, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rec.Result.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d listed", len(rec.Result.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := rec.Result.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, listed %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

// TestWorkloadsEmitListedMetrics runs every workload at tiny size,
// untraced and traced, and checks the emitted metrics against
// BENCHMARK.json, the outputs' correctness, and that the traced run
// charges every CPU-profile sample to exactly one layer.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rec, err := runBench(tinyConfig(w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct {
				t.Fatalf("outputs incorrect: %s", rec.CheckOK)
			}
			checkMetrics(t, rec, s.EndToEnd)
			for _, m := range s.EndToEnd {
				if v := rec.Result.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}

			rec, err = runBench(tinyConfig(w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct {
				t.Fatalf("traced outputs incorrect: %s", rec.CheckOK)
			}
			checkMetrics(t, rec, s.PerLayer)
			ops := float64(rec.Detail["traced_window"].(map[string]any)["ops"].(int64))
			var charged float64
			for _, l := range layers {
				charged += rec.Layers[l+".cpu_us_per_op"] * ops / 1e3
			}
			total := rec.Detail["profile_ms"].(float64)
			if total == 0 || math.Abs(charged-total) > 0.01*total {
				t.Errorf("layers charged %.2f ms of %.2f ms of CPU samples", charged, total)
			}
		})
	}
}

// warmInstance sets a workload up at tiny size and runs it briefly.
func warmInstance(t *testing.T, name string) instance {
	t.Helper()
	wl, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.setup(3, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	if _, err := inst.run(200*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	return inst
}

// Each correctness check must fire when the benchmark's model is off by
// one.
func TestChecksFireOnWrongModel(t *testing.T) {
	t.Run("synth-xftl/read", func(t *testing.T) {
		s := warmInstance(t, "synth-xftl").(*synthInst)
		s.model[s.keys[s.next%len(s.keys)]]++
		if _, err := s.run(50*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		if s.check() == nil {
			t.Error("a SELECT disagreeing with the model passed the check")
		}
	})
	t.Run("synth-xftl/recovery", func(t *testing.T) {
		s := warmInstance(t, "synth-xftl").(*synthInst)
		if err := s.check(); err != nil {
			t.Fatalf("correct model failed: %v", err)
		}
		s.model[1]++
		if compareCosts(s) == nil {
			t.Error("a recovered table disagreeing with the model passed the check")
		}
	})
	t.Run("kv-mvcc", func(t *testing.T) {
		s := warmInstance(t, "kv-mvcc").(*kvInst)
		if err := s.check(); err != nil {
			t.Fatalf("correct model failed: %v", err)
		}
		s.model[0]++
		if s.check() == nil {
			t.Error("a table disagreeing with the model passed the check")
		}
	})
	t.Run("serve-mixed", func(t *testing.T) {
		s := warmInstance(t, "serve-mixed").(*serveInst)
		if err := s.check(); err != nil {
			t.Fatalf("correct model failed: %v", err)
		}
		s.acked++
		if s.check() == nil {
			t.Error("a SUM(v) disagreeing with the acknowledged increments passed the check")
		}
	})
}

func TestSummarize(t *testing.T) {
	var v []time.Duration
	for i := 2000; i >= 1; i-- {
		v = append(v, time.Duration(i)*time.Microsecond)
	}
	got := summarize(v)
	if got.N != 2000 || got.P50us != 1000 || got.P99us != 1980 || !got.P99Backed {
		t.Errorf("summary %+v", got)
	}
	if got.TailPct != 99 {
		t.Errorf("tail percentile %v, want 99 (20 samples beyond)", got.TailPct)
	}
}

func TestRetryOnlyBusyWithinBudget(t *testing.T) {
	now := time.Now()
	busy := &server.Response{Code: "busy", Retryable: true}
	if !retry(inflight{due: now}, busy) {
		t.Error("a busy answer within the budget is not retried")
	}
	if retry(inflight{due: now.Add(-serveRetryBudget)}, busy) {
		t.Error("a busy answer past the budget is retried")
	}
	if retry(inflight{due: now}, &server.Response{Code: "overload", Retryable: true}) {
		t.Error("an overload answer is retried")
	}
	if retry(inflight{due: now}, &server.Response{OK: true}) {
		t.Error("a successful answer is retried")
	}
}
