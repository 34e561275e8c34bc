package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"yanc/bench/ofsink"
)

// smoke is the tier-1 configuration: the whole run shape at about one
// second of phases (0.6 s fixed-rate + 0.6 s capacity) over a small tree,
// verification on.
func smoke(wl string) config {
	return config{workload: workloadByName(wl), seed: 1, seconds: 1.2, setups: 1, scale: 16, drain: 10 * time.Second}
}

func TestSmokeEveryWorkload(t *testing.T) {
	chdirTemp(t)
	for _, wl := range workloads {
		res, err := execute(smoke(wl.name))
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || len(res.Problems) != 0 {
			t.Errorf("%s: correct=%v failed=%d problems=%v", wl.name, res.Correct, res.Failed, res.Problems)
		}
		if res.Attempted < 50 {
			t.Errorf("%s: only %d operations attempted", wl.name, res.Attempted)
		}
		for _, m := range append(endToEnd, reported[:2]...) {
			if v, ok := res.EndToEnd[m.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, every end-to-end metric must be reported and non-zero", wl.name, m.name, v)
			}
		}
		if v := res.EndToEnd["scan_flows_per_s"]; wl.scanner != (v > 0) {
			t.Errorf("%s: scan_flows_per_s = %v", wl.name, v)
		}
		if err := report(res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSmokeTraced runs the traced shape on the ring and the reactive path
// and checks the interaction predictions that a single run can check.
func TestSmokeTraced(t *testing.T) {
	chdirTemp(t)
	perLayerOf := func(wl string) map[string]float64 {
		cfg := smoke(wl)
		cfg.trace = true
		res, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: failed=%d problems=%v", wl, res.Failed, res.Problems)
		}
		for _, m := range perLayer {
			if _, ok := res.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl, m.name)
			}
		}
		if _, err := os.Stat("bench/out/trace-" + wl + ".json"); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
		return res.PerLayer
	}
	ring := perLayerOf("install_ring")
	// The ring commits without per-file calls; what remains of
	// vfs.ops_per_op is the driver reading every flow back.
	if ring["vfs.mutating_ops_per_op"] > 1 || ring["vfs.ops_per_op"] < 10 {
		t.Errorf("install_ring: vfs.mutating_ops_per_op = %.1f (want ≈0), vfs.ops_per_op = %.1f (want the driver's read-back)",
			ring["vfs.mutating_ops_per_op"], ring["vfs.ops_per_op"])
	}
	if ring["libyanc.batch_mean"] < 1 || ring["driver.react_p50_us"] <= 0 || ring["libyanc.submit_commit_p50_us"] <= 0 {
		t.Errorf("install_ring: libyanc/driver spans empty: %v", ring)
	}
	for _, name := range []string{"apps.router_handle_p50_us", "apps.load_topology_alone_us", "driver.pktin_ingest_p50_us", "driver.pktin_batch_mean"} {
		if ring[name] != 0 {
			t.Errorf("install_ring: %s = %v, want 0 off the reactive path", name, ring[name])
		}
	}
	miss := perLayerOf("reactive_miss")
	for _, name := range []string{"apps.router_handle_p50_us", "apps.load_topology_alone_us", "driver.pktin_ingest_p50_us", "driver.pktin_batch_mean"} {
		if miss[name] <= 0 {
			t.Errorf("reactive_miss: %s = %v, want > 0", name, miss[name])
		}
	}
	if miss["apps.floods"] != 0 {
		t.Errorf("reactive_miss: router flooded %v misses", miss["apps.floods"])
	}
}

// TestDroppedFlowModFailsTheRun: a sink that silently loses one flow-mod
// must show up as failed operations and a failing exit.
func TestDroppedFlowModFailsTheRun(t *testing.T) {
	chdirTemp(t)
	cfg := smoke("install_file")
	cfg.drain = 300 * time.Millisecond
	// Sink 1 sees the fill, then an add and a delete for every second
	// warm-up operation; 100 flow-mods later is in the fixed-rate phase.
	warmup := cfg.seconds / 12 * cfg.workload.rate
	cfg.dropNth = uint64(cfg.workload.resident/cfg.scale) + uint64(warmup) + 100
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(res.Problems) == 0 {
		t.Fatalf("dropped flow-mod went unnoticed: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
	}
	if share := res.EndToEnd["failed_share"]; share <= 0 {
		t.Fatalf("failed_share = %v, want > 0", share)
	}
}

// TestStalledOpDelaysThoseBehindIt is the open-loop property: latency runs
// from when an operation was due, so a stall is charged to every operation
// queued behind it, not only to the one that stalled.
func TestStalledOpDelaysThoseBehindIt(t *testing.T) {
	const stallAt, stall = 20, 40 * time.Millisecond
	step := func(r *run, o *op) error {
		k := partKey{kind: ofsink.FlowAdd, key: ofsink.Key{byte(o.id), byte(o.id >> 8)}}
		r.trk.expect(o, want{partKey: k, anyBody: true})
		if o.id == stallAt {
			time.Sleep(stall)
		}
		r.trk.observe(0, ofsink.Event{Kind: ofsink.FlowAdd, Key: k.key, At: time.Now()})
		return nil
	}
	r := &run{epoch: time.Now(), wl: &workload{step: step}}
	r.trk = newTracker(r.epoch)
	if err := r.openLoop(phFixed, 200*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	done := r.trk.done[phFixed]
	if len(done) != 200 {
		t.Fatalf("%d operations completed, want 200", len(done))
	}
	// Op 21 was due 1 ms into the stall and op 40 20 ms into it; their own
	// service is instant, so anything they report is time spent queued.
	if got := done[stallAt+1].Lat; got < stall-5*time.Millisecond {
		t.Errorf("op queued 1 ms behind a %v stall measured %v", stall, got)
	}
	if got := done[stallAt+20].Lat; got < stall/2-5*time.Millisecond {
		t.Errorf("op queued 20 ms behind a %v stall measured %v", stall, got)
	}
	if lag := r.lag[stallAt+1]; lag < float64((stall-5*time.Millisecond)/time.Microsecond) {
		t.Errorf("generator lateness behind the stall = %.0f µs", lag)
	}
}

// TestPercentilesAreExact guards against bucketed percentiles coming back:
// a 0.5 % shift of every sample must move p50 and p99 by 0.5 %, which a
// power-of-two (or any coarse) bucket edge would swallow.
func TestPercentilesAreExact(t *testing.T) {
	mk := func(scale float64) []sample {
		out := make([]sample, 5000)
		for i := range out {
			out[i].At = time.Duration(i) * time.Millisecond
			out[i].Lat = time.Duration(scale * float64(100_000+(i*7919%5000)*37))
		}
		return out
	}
	a, b := summarize(mk(1), 0, 5*time.Second, time.Second), summarize(mk(1.005), 0, 5*time.Second, time.Second)
	if a.Windows != 5 {
		t.Fatalf("%d windows, want 5", a.Windows)
	}
	for _, c := range []struct {
		name string
		a, b float64
	}{{"p50", a.P50, b.P50}, {"p99", a.P99, b.P99}, {"whole p50", a.WholeP50, b.WholeP50}, {"whole p99", a.WholeP99, b.WholeP99}, {"tail", a.Tail, b.Tail}} {
		if shift := c.b/c.a - 1; shift < 0.004 || shift > 0.006 {
			t.Errorf("%s moved by %.4f %% for a 0.5 %% shift (%.6f -> %.6f)", c.name, 100*shift, c.a, c.b)
		}
	}
	if a.N != 5000 || a.Beyond99 != 50 {
		t.Errorf("n=%d beyond99=%d", a.N, a.Beyond99)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{50, 0.5, false}, {100, 0.90, true}, {999, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true}} {
		if q, ok := tailQuantile(c.n); q != c.q || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.ok)
		}
	}
}

func TestHeadroomBelowTenFails(t *testing.T) {
	if _, problem := checkHeadroom(50_000, 10_000); problem == "" {
		t.Error("a sink only 5× faster than the system must fail the run")
	}
	if ratio, problem := checkHeadroom(500_000, 10_000); problem != "" || ratio != 50 {
		t.Errorf("ratio %v problem %q", ratio, problem)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	pairs := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		sort.Strings(out)
		return out
	}
	var e2e, layers []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
		if want := map[bool]string{true: "higher", false: "lower"}[m.Name == "capacity_per_s"]; m.Better != want {
			t.Errorf("%s: better %q, want %q", m.Name, m.Better, want)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	if !slices.Equal(pairs(e2e), pairs(endToEnd)) {
		t.Errorf("end_to_end %v, code has %v", pairs(e2e), pairs(endToEnd))
	}
	if !slices.Equal(pairs(layers), pairs(perLayer)) {
		t.Errorf("per_layer %v, code has %v", pairs(layers), pairs(perLayer))
	}
}

// chdirTemp runs the test in an empty directory: result and trace files
// land in ./bench/out of the working directory.
func chdirTemp(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}
