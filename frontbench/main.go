// Command frontbench is the repository's end-to-end benchmark. It builds
// the deployed cluster from the layers' public constructors — engine,
// shield, server, nodes, partitioned router — drives it through the
// router's handler in-process with a closed loop of callers, checks
// every answer, and prints one JSON result line. See README.md.
//
//	frontbench --workload zipf-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "frontbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("frontbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: zipf-read, extract-scan or write-mix")
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same op streams")
		seconds = fs.Int("seconds", 10, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		data    = fs.String("data", filepath.Join(".bench_build", "frontbench-data"), "scratch directory for shard files and traces")
		sens    = fs.Bool("sensitivity", false, "run the failpoint sensitivity check instead of one workload")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	dur := time.Duration(*seconds) * time.Second
	if err := os.MkdirAll(*data, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(*data, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	if *sens {
		return sensitivity(*seed, dur, runDir)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	var res *result
	switch {
	case *trace == 1:
		res, err = runTraced(w, *seed, dur, runDir, *data)
	case *trace == 0:
		res, err = runMeasured(w, *seed, dur, runDir, nil)
	default:
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
