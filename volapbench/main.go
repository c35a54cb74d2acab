// Command volapbench is VOLAP's end-to-end benchmark. It boots a cluster
// over real TCP inside its own process (1 server, 2 workers × 4 shards,
// async ingest pipeline, async durability, RF=2, three rollups), preloads
// 50 000 TPC-DS items, drives one named workload through volap.Client,
// checks every answer against a reference, and prints its metrics.
//
//	bash volapbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a separate
// traced run. The line before it is a self-describing record of the run:
// host, toolchain, seed, phase lengths, and every metric with its unit,
// sample count and the phase that measured it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Workloads, each with the reason it was chosen. Load comes from one
// process with at most two client sessions (the benchmark host has 2
// CPUs).
var workloads = []struct{ name, why string }{
	{"ingest", "write-only: routing, wire, worker insert, WAL, replica shipping and drains do all the work; query layers do none"},
	{"dashboard", "read-only on static data: routing, scatter-gather, tree, rollup and replica reads do all the work; bypasses ingest"},
	{"mixed", "fixed-rate open-loop inserts beside the dashboard mix: queries meet drains, shard locks and the pending-buffer scan"},
}

func main() {
	var rc runConfig
	flag.StringVar(&rc.workload, "workload", "", "workload: ingest, dashboard or mixed")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed")
	secs := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run that reports per-layer metrics")
	flag.Parse()
	rc.seconds = time.Duration(*secs) * time.Second
	rc.trace = *trace == 1
	rc.preload = 50000
	rc.setups = 3
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *secs < 1 {
		fatalf("--seconds must be at least 1")
	}
	if !knownWorkload(rc.workload) {
		fatalf("unknown --workload %q", rc.workload)
	}
	dir, err := os.MkdirTemp("", "volapbench-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	rc.dir = dir
	res, err := run(context.Background(), rc)
	_ = os.RemoveAll(dir) // scratch state only
	if err != nil {
		fatalf("%v", err)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"record": res.record}); err != nil {
		fatalf("%v", err)
	}
	if err := out.Encode(res.summary(rc.trace)); err != nil {
		fatalf("%v", err)
	}
	if !res.correct {
		fmt.Fprintf(os.Stderr, "volapbench: wrong answers: %v\n", res.firstWrong)
		os.Exit(1)
	}
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "volapbench: "+format+"\n", args...)
	os.Exit(2)
}
