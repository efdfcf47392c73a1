// Command benchguard is the CI regression gate for the real-socket data
// path: it reruns the pipeline-depth sweep, the dirty write-back sweep,
// the replicated-write sweep, the traversal-offload sweep and the
// wire-efficiency ladder and compares each guarded ratio against the
// checked-in baseline tables (BENCH_pipeline.json, BENCH_writeback.json,
// BENCH_replica.json, BENCH_chase.json, BENCH_wire.json). A fresh best
// ratio below threshold × baseline fails the build — the batched read
// path, the staged write-back path, the replicated fan-out's throughput
// retention over its in-run R=1 baseline, the offloaded pointer chase's
// speedup over dependent per-hop reads (pinned at hop budget 16), or the
// compact+compression+range tier's bytes-on-wire reduction over the
// plain compact rung (pinned at the analytics workload) has regressed.
//
// The guard compares *speedups over the in-run baseline row*, not
// absolute throughput: both sides of the ratio come from the same
// process on the same machine, so host speed cancels out and the
// checked-in numbers stay portable across CI hardware.
//
// The sweeps are wall-clock over real sockets, so a single run is
// noisy; the guard takes the best of -runs attempts, which tracks the
// machine's attainable speedup rather than one draw's scheduling luck.
// Pass or fail, it prints the per-row measured-vs-baseline delta table,
// so a green build still leaves the drift on record.
//
// Usage:
//
//	benchguard [-baseline BENCH_pipeline.json] [-threshold 0.85] [-runs 3]
//	           [-writeback-baseline BENCH_writeback.json] [-writeback-threshold 0.7]
//	           [-replica-baseline BENCH_replica.json] [-replica-threshold 0.6]
//	           [-chase-baseline BENCH_chase.json] [-chase-threshold 0.7]
//	           [-wire-baseline BENCH_wire.json] [-wire-threshold 0.8]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cards/internal/bench"
)

// table mirrors bench.Table's JSON payload.
type table struct {
	ID     string     `json:"id"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// gate is one guarded sweep: a checked-in baseline table, the fresh
// sweep that regenerates it, and the shape of its speedup column.
type gate struct {
	name      string
	baseline  string
	threshold float64
	ratioCol  string // header of the in-run speedup column
	rowKey    string // first column value of the accelerated rows
	rowKey2   string // optional second column value (pins one sweep point)
	run       func() (*bench.Table, error)
}

func main() {
	pipeBase := flag.String("baseline", "BENCH_pipeline.json", "checked-in pipeline sweep table")
	pipeThresh := flag.Float64("threshold", 0.85, "minimum fresh/baseline best-speedup ratio (pipeline)")
	wbBase := flag.String("writeback-baseline", "BENCH_writeback.json", "checked-in write-back sweep table (empty disables the gate)")
	wbThresh := flag.Float64("writeback-threshold", 0.7, "minimum fresh/baseline best-speedup ratio (write-back; looser, the sync denominator is one long RTT chain)")
	repBase := flag.String("replica-baseline", "BENCH_replica.json", "checked-in replication sweep table (empty disables the gate)")
	repThresh := flag.Float64("replica-threshold", 0.6, "minimum fresh/baseline throughput-retention ratio (replica R=2 row; loosest, two windows' scheduling noise)")
	chaseBase := flag.String("chase-baseline", "BENCH_chase.json", "checked-in traversal-offload sweep table (empty disables the gate)")
	chaseThresh := flag.Float64("chase-threshold", 0.7, "minimum fresh/baseline speedup ratio (chase offload, hop budget 16)")
	wireBase := flag.String("wire-baseline", "BENCH_wire.json", "checked-in wire-efficiency ladder table (empty disables the gate)")
	wireThresh := flag.Float64("wire-threshold", 0.8, "minimum fresh/baseline bytes-per-op reduction ratio (analytics, full ladder; byte counts are near-deterministic)")
	runs := flag.Int("runs", 3, "sweep attempts per gate; the best one is compared")
	flag.Parse()

	gates := []gate{{
		name:      "pipeline",
		baseline:  *pipeBase,
		threshold: *pipeThresh,
		ratioCol:  "vs serial",
		rowKey:    "pipelined",
		run:       func() (*bench.Table, error) { return bench.Pipeline(bench.Quick()) },
	}}
	if *wbBase != "" {
		gates = append(gates, gate{
			name:      "writeback",
			baseline:  *wbBase,
			threshold: *wbThresh,
			ratioCol:  "vs sync",
			rowKey:    "async",
			run:       func() (*bench.Table, error) { return bench.Writeback(bench.Quick()) },
		})
	}
	if *repBase != "" {
		gates = append(gates, gate{
			name:      "replica",
			baseline:  *repBase,
			threshold: *repThresh,
			ratioCol:  "vs R=1",
			rowKey:    "2",
			run:       func() (*bench.Table, error) { return bench.Replica(bench.Quick()) },
		})
	}
	if *chaseBase != "" {
		gates = append(gates, gate{
			name:      "chase",
			baseline:  *chaseBase,
			threshold: *chaseThresh,
			ratioCol:  "vs per-hop",
			rowKey:    "offload",
			rowKey2:   "16",
			run:       func() (*bench.Table, error) { return bench.Chase(bench.Quick()) },
		})
	}
	if *wireBase != "" {
		gates = append(gates, gate{
			name:      "wire",
			baseline:  *wireBase,
			threshold: *wireThresh,
			ratioCol:  "bytes vs compact",
			rowKey:    "analytics",
			rowKey2:   "compact+lz+range",
			run:       func() (*bench.Table, error) { return bench.Wire(bench.Quick()) },
		})
	}

	failed := false
	for _, g := range gates {
		if !g.check(*runs) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// check runs one gate and reports whether it passed, printing the
// per-row delta table either way.
func (g gate) check(runs int) bool {
	data, err := os.ReadFile(g.baseline)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	var base table
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parse %s: %v", g.baseline, err)
	}
	want, err := bestSpeedup(base.Header, base.Rows, g.ratioCol, g.rowKey, g.rowKey2)
	if err != nil {
		fatal("%s: %v", g.baseline, err)
	}

	got := 0.0
	var bestRun *bench.Table
	for i := 0; i < runs; i++ {
		fresh, err := g.run()
		if err != nil {
			fatal("%s sweep: %v", g.name, err)
		}
		v, err := bestSpeedup(fresh.Header, fresh.Rows, g.ratioCol, g.rowKey, g.rowKey2)
		if err != nil {
			fatal("fresh %s sweep: %v", g.name, err)
		}
		if v > got {
			got, bestRun = v, fresh
		}
	}

	printDelta(g, base, bestRun)
	fmt.Printf("benchguard: %s best speedup %.2fx fresh vs %.2fx baseline (floor %.2fx)\n",
		g.name, got, want, want*g.threshold)
	if got < want*g.threshold {
		fmt.Fprintf(os.Stderr, "benchguard: %s sweep regressed >%d%%: best speedup %.2fx, baseline %.2fx\n",
			g.name, int((1-g.threshold)*100), got, want)
		return false
	}
	return true
}

// printDelta renders the measured-vs-baseline speedup per sweep row,
// matched on the first two columns (client/mode + depth/batch).
func printDelta(g gate, base table, fresh *bench.Table) {
	col := colIndex(base.Header, g.ratioCol)
	fcol := colIndex(fresh.Header, g.ratioCol)
	if col < 0 || fcol < 0 {
		return
	}
	baseRatio := make(map[string]float64)
	for _, row := range base.Rows {
		if v, err := parseRatio(row[col]); err == nil {
			baseRatio[rowID(row)] = v
		}
	}
	fmt.Printf("benchguard: %s measured vs baseline (%s):\n", g.name, g.ratioCol)
	fmt.Printf("  %-12s %-8s %9s %9s %8s\n", fresh.Header[0], fresh.Header[1], "baseline", "measured", "delta")
	for _, row := range fresh.Rows {
		v, err := parseRatio(row[fcol])
		if err != nil {
			continue
		}
		b, ok := baseRatio[rowID(row)]
		if !ok || b == 0 {
			fmt.Printf("  %-12s %-8s %9s %8.2fx %8s\n", row[0], row[1], "-", v, "-")
			continue
		}
		fmt.Printf("  %-12s %-8s %8.2fx %8.2fx %+7.1f%%\n", row[0], row[1], b, v, 100*(v/b-1))
	}
}

func rowID(row []string) string {
	if len(row) < 2 {
		return strings.Join(row, "|")
	}
	return row[0] + "|" + row[1]
}

func colIndex(header []string, name string) int {
	for i, h := range header {
		if h == name {
			return i
		}
	}
	return -1
}

func parseRatio(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
}

// bestSpeedup extracts the maximum ratioCol ratio over the rowKey rows
// of a sweep table; a non-empty rowKey2 further pins the second column
// so a gate can guard one sweep point instead of the sweep's best.
func bestSpeedup(header []string, rows [][]string, ratioCol, rowKey, rowKey2 string) (float64, error) {
	col := colIndex(header, ratioCol)
	if col < 0 {
		return 0, fmt.Errorf("no %q column", ratioCol)
	}
	best := 0.0
	for _, row := range rows {
		if len(row) <= col || row[0] != rowKey {
			continue
		}
		if rowKey2 != "" && (len(row) < 2 || row[1] != rowKey2) {
			continue
		}
		v, err := parseRatio(row[col])
		if err != nil {
			return 0, fmt.Errorf("bad ratio %q: %v", row[col], err)
		}
		if v > best {
			best = v
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no %s rows", rowKey)
	}
	return best, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}
