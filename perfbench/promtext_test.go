package main

import (
	"strings"
	"testing"
)

// cannedExposition is the shape cardsd serves on /metrics.
const cannedExposition = `# HELP cards_remote_reads_total reads served
# TYPE cards_remote_reads_total counter
cards_remote_reads_total 7659
cards_remote_writes_total 7686
cards_remote_chases_total 0
cards_remote_read_batches_total 7659
cards_remote_write_batches_total 7674
cards_wire_bytes_total{verb="DATABATCH-C"} 8633015
cards_wire_bytes_total{verb="WRITEBATCH-C"} 8670859
cards_wire_bytes_total{verb="READBATCH-C"} 107226
cards_wire_bytes_total{verb="other"} 0
cards_remote_read_ns_bucket{le="+Inf"} 7659
cards_remote_read_ns_sum 185366646
cards_remote_read_ns_count 7659
cards_remote_batch_writes_sum 7686 1700000000000
cards_remote_ping_ns_count 1

cards_remote_bytes_in_total 8778094
`

func TestParseExposition(t *testing.T) {
	e, err := parseExposition(strings.NewReader(cannedExposition))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"cards_remote_reads_total":                   7659,
		`cards_wire_bytes_total{verb="DATABATCH-C"}`: 8633015,
		`cards_remote_read_ns_bucket{le="+Inf"}`:     7659,
		"cards_remote_batch_writes_sum":              7686, // timestamp ignored
		"cards_remote_read_ns_sum":                   185366646,
	} {
		if e[series] != want {
			t.Errorf("%s = %v, want %v", series, e[series], want)
		}
	}
	if got := e.family("cards_wire_bytes_total"); got != 8633015+8670859+107226 {
		t.Errorf("wire family sum %v", got)
	}
	// A family name that prefixes another must not absorb it.
	if got := e.family("cards_remote_read_ns"); got != 0 {
		t.Errorf("family(cards_remote_read_ns) = %v, want 0", got)
	}
	d := e.add(e).sub(e)
	if d["cards_remote_writes_total"] != 7686 {
		t.Errorf("add/sub: %v", d["cards_remote_writes_total"])
	}
	if _, err := parseExposition(strings.NewReader("cards_x{verb=\"a\" 1\n")); err == nil {
		t.Error("unterminated label set parsed")
	}
	if _, err := parseExposition(strings.NewReader("cards_x abc\n")); err == nil {
		t.Error("non-numeric value parsed")
	}
}

// TestServerAccounting checks the cross-check between the runtime's
// issued operations and the fleet's served counters, including a fleet
// whose counters are misattributed (writes reported as reads).
func TestServerAccounting(t *testing.T) {
	e, err := parseExposition(strings.NewReader(cannedExposition))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookup("analytics")
	var ex execResult
	ex.stats.RemoteFetches = 7659
	ex.writeBacks = 7686
	execs := []execResult{ex}

	r := &report{Correct: true}
	checkServerAccounting(r, w, execs, e)
	if !r.Correct {
		t.Fatalf("consistent counters judged inconsistent: %v", r.problems)
	}

	swapped := e.add(nil)
	swapped["cards_remote_reads_total"] = e["cards_remote_reads_total"] + e["cards_remote_writes_total"]
	swapped["cards_remote_writes_total"] = 0
	r = &report{Correct: true}
	checkServerAccounting(r, w, execs, swapped)
	if r.Correct {
		t.Fatal("misattributed server counters passed the cross-check")
	}

	// Under replication every write-back is served once per replica.
	wr, _ := lookup("bfs-replicated")
	r = &report{Correct: true}
	checkServerAccounting(r, wr, execs, e)
	if r.Correct {
		t.Fatal("unreplicated write count passed for a replicated workload")
	}
}
