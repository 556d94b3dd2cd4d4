package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/fault"
)

// probeLatency is the latency each sensitivity failpoint adds per hit.
const probeLatency = 500 * time.Microsecond

// sensCase arms one failpoint on one workload and names the metric it
// must move beyond that metric's bound ("" for a control that must move
// nothing).
type sensCase struct {
	site     fault.Site
	workload string
	moves    string
}

var sensCases = []sensCase{
	{fault.WALAppend, "write-mix", "write_p50_ms"},
	{fault.ClusterFanout, "write-mix", "write_p50_ms"},
	{fault.PoolLoad, "extract-scan", "scan_p50_ms"},
	{fault.WALAppend, "zipf-read", ""},
	{fault.ClusterFanout, "zipf-read", ""},
	{fault.PoolLoad, "zipf-read", ""},
}

// controlMetrics are the zipf-read metrics its closed loop produces; a
// failpoint outside the read path must leave them within their bounds.
var controlMetrics = []string{"throughput_ops_s", "read_p50_ms", "read_p95_ms"}

// benchBound is one end-to-end metric's entry in BENCHMARK.json.
type benchBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// sensitivity runs each workload once unarmed and once per failpoint
// case, then checks every prediction. It is a separate invocation from
// the measured runs and reads the bounds from BENCHMARK.json in the
// working directory.
func sensitivity(seed int64, dur time.Duration, runDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []benchBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]benchBound{}
	for _, b := range spec.EndToEnd {
		bounds[b.Name] = b
	}
	base := map[string]*result{}
	measure := func(name string, armed *fault.Rule) (*result, error) {
		w, err := findWorkload(name)
		if err != nil {
			return nil, err
		}
		return runMeasured(w, seed, dur, runDir, armed)
	}
	// worse is the relative change of metric in the bad direction.
	worse := func(metric string, before, after *result) float64 {
		b, a := before.Metrics[metric].Value, after.Metrics[metric].Value
		if bounds[metric].Better == "higher" {
			return (b - a) / b
		}
		return (a - b) / b
	}
	pass := true
	for _, sc := range sensCases {
		if base[sc.workload] == nil {
			if base[sc.workload], err = measure(sc.workload, nil); err != nil {
				return err
			}
		}
		armed, err := measure(sc.workload, &fault.Rule{Site: sc.site, Kind: fault.Latency, Latency: probeLatency})
		if err != nil {
			return err
		}
		checks := controlMetrics
		if sc.moves != "" {
			checks = []string{sc.moves}
		}
		for _, m := range checks {
			change := worse(m, base[sc.workload], armed)
			ok := change <= bounds[m].Bound
			if sc.moves != "" {
				ok = change > bounds[m].Bound
			}
			pass = pass && ok && armed.Correct
			fmt.Printf("%-14s %-13s %-17s base %10.4f armed %10.4f worse %+8.1f%% bound %4.0f%% %s\n",
				sc.site, sc.workload, m, base[sc.workload].Metrics[m].Value, armed.Metrics[m].Value,
				100*change, 100*bounds[m].Bound, verdict(ok))
		}
	}
	if !pass {
		return fmt.Errorf("sensitivity: a prediction failed")
	}
	fmt.Println("sensitivity: every prediction held")
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
