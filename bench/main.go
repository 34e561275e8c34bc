// Command bench is yancperf, the repository's benchmark: an open-loop
// flow-journey measurement of the yanc controller (see README.md).
//
//	go run ./bench -workload all -seed 1
//	go run ./bench -workload install_ring -seed 7 -seconds 24 -trace 1
//
// It prints every metric by name and unit, then one JSON object on the
// last line, and exits non-zero if any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir receives the trace and result files; it is relative to the
// working directory, which is the root of the checkout.
const outDir = "bench/out"

func main() {
	name := flag.String("workload", "all", "install_file, install_ring, reactive_miss, churn_scan or all")
	seed := flag.Int64("seed", 1, "op-stream seed: the same seed gives the same operations")
	seconds := flag.Float64("seconds", 24, "measured seconds per workload: half fixed-rate phase, half capacity phase")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer table instead of the end-to-end metrics")
	flag.Parse()

	run := workloads
	if *name != "all" {
		wl := workloadByName(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{wl}
	}
	ok := true
	for _, wl := range run {
		res, err := execute(config{
			workload: wl, seed: *seed, seconds: *seconds, trace: *trace != 0,
			setups: 3, scale: 1, drain: 10 * time.Second,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		if err := report(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints the human-readable table, writes the result file (with
// its env block) and prints the contract's result line last.
func report(res *result) error {
	fmt.Printf("== %s seed=%d seconds=%g traced=%v  nproc=%d GOMAXPROCS=%d %s commit=%.12s kernel=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Traced,
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit, res.Env.Kernel)
	l := res.Latency
	fmt.Printf("   fixed phase: %.0f ops/s open loop, n=%d samples in %d windows; whole phase p50 %.4f ms, p99 %.4f ms (%d beyond), p%g %.4f ms\n",
		res.Notes["fixed_rate_per_s"], l.N, l.Windows, l.WholeP50, l.WholeP99, l.Beyond99, l.TailQ*100, l.Tail)
	if l.Beyond99 < 10 {
		fmt.Printf("   WARNING: fewer than 10 samples beyond p99 — lengthen the phase\n")
	}
	units := map[string]string{}
	for _, list := range [][]metric{endToEnd, reported, perLayer} {
		for _, m := range list {
			units[m.name] = m.unit
		}
	}
	table := func(title string, values map[string]float64) {
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("   %s\n", title)
		for _, n := range names {
			fmt.Printf("     %-36s %16.4f %s\n", n, values[n], units[n])
		}
	}
	if res.Traced {
		table("end to end (traced run: not for comparison)", res.EndToEnd)
		table("per layer", res.PerLayer)
	} else {
		table("end to end", res.EndToEnd)
	}
	table("notes", res.Notes)
	for _, p := range res.Problems {
		fmt.Printf("   WRONG: %s\n", p)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if res.Traced {
		kind = "result-traced"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, kind+"-"+res.Workload+".json"), data, 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	list, values := endToEnd, res.EndToEnd
	if res.Traced {
		list, values = perLayer, res.PerLayer
	}
	for _, m := range list {
		line.Metrics[m.name] = value{Value: values[m.name], Unit: m.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
