package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusHistogramConformance checks the histogram exposition
// against the text-format rules scrapers depend on:
//
//   - _bucket series carry cumulative counts, non-decreasing in le
//   - a +Inf bucket is always present and equals _count
//   - _sum and _count are emitted with the histogram's label set
//   - the cumulative count at each le equals the number of observations
//     with value <= le (ground truth from the raw observations)
//   - every sample name is preceded by exactly one # TYPE line of the
//     right type, before the first sample of that name
func TestPrometheusHistogramConformance(t *testing.T) {
	reg := NewRegistry()
	values := []uint64{0, 1, 2, 3, 5, 7, 1024, 1 << 40, math.MaxUint64}
	h := reg.Histogram("cards_test_us", "ds", "1", "component", "wire")
	var sum uint64
	for _, v := range values {
		h.Observe(v)
		sum += v
	}
	// A second series of the same metric, and an empty one: the TYPE
	// line must appear once, and empty histograms still need +Inf.
	reg.Histogram("cards_test_us", "ds", "2", "component", "wire").Observe(9)
	reg.Histogram("cards_empty_us")
	reg.Counter("cards_test_ops_total").Add(3)

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	type sample struct {
		le    float64
		hasLe bool
		value uint64
	}
	samples := make(map[string][]sample) // series key without le -> samples in emission order
	typeOf := make(map[string]string)
	seen := make(map[string]bool) // metric base names with samples already emitted
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if _, dup := typeOf[parts[2]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			if seen[parts[2]] {
				t.Errorf("line %d: TYPE for %s after its samples", ln+1, parts[2])
			}
			typeOf[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseUint(valStr, 10, 64)
		if err != nil {
			t.Fatalf("line %d: non-integer value %q: %v", ln+1, valStr, err)
		}
		s := sample{value: val}
		key := series
		if i := strings.Index(series, `le="`); i >= 0 {
			j := strings.IndexByte(series[i+4:], '"')
			leStr := series[i+4 : i+4+j]
			if leStr == "+Inf" {
				s.le = math.Inf(1)
			} else if s.le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("line %d: bad le %q", ln+1, leStr)
			}
			s.hasLe = true
			// Strip the le pair (and its separator) to group the buckets
			// of one series.
			start := i
			if start > 0 && series[start-1] == ',' {
				start--
			}
			key = series[:start] + series[i+4+j+1:]
			key = strings.TrimSuffix(key, "{}")
		}
		samples[key] = append(samples[key], s)
		name := series
		if k := strings.IndexByte(series, '{'); k >= 0 {
			name = series[:k]
		}
		seen[name] = true
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if typeOf[base] == "" && typeOf[name] == "" {
			t.Errorf("line %d: sample %s has no TYPE line", ln+1, name)
		}
	}

	if got := typeOf["cards_test_us"]; got != "histogram" {
		t.Errorf("TYPE cards_test_us = %q, want histogram", got)
	}
	if got := typeOf["cards_test_ops_total"]; got != "counter" {
		t.Errorf("TYPE cards_test_ops_total = %q, want counter", got)
	}

	checkHistogram := func(labels string, vals []uint64, wantSum uint64) {
		t.Helper()
		buckets := samples[`cards_test_us_bucket`+labels]
		if len(buckets) == 0 {
			t.Fatalf("no _bucket samples for %s", labels)
		}
		prevLe := math.Inf(-1)
		var prevCum uint64
		for _, b := range buckets {
			if !b.hasLe {
				t.Fatalf("%s: bucket without le label", labels)
			}
			if b.le <= prevLe {
				t.Errorf("%s: le %v out of order after %v", labels, b.le, prevLe)
			}
			if b.value < prevCum {
				t.Errorf("%s: bucket le=%v count %d not cumulative (previous %d)",
					labels, b.le, b.value, prevCum)
			}
			var want uint64
			for _, v := range vals {
				if float64(v) <= b.le {
					want++
				}
			}
			if b.value != want {
				t.Errorf("%s: cumulative count at le=%v is %d, want %d",
					labels, b.le, b.value, want)
			}
			prevLe, prevCum = b.le, b.value
		}
		last := buckets[len(buckets)-1]
		if !math.IsInf(last.le, 1) {
			t.Errorf("%s: last bucket le=%v, want +Inf", labels, last.le)
		}
		count := samples["cards_test_us_count"+labels]
		if len(count) != 1 || count[0].value != uint64(len(vals)) {
			t.Errorf("%s: _count = %v, want one sample of %d", labels, count, len(vals))
		}
		if last.value != uint64(len(vals)) {
			t.Errorf("%s: +Inf bucket %d != _count %d", labels, last.value, len(vals))
		}
		s := samples["cards_test_us_sum"+labels]
		if len(s) != 1 || s[0].value != wantSum {
			t.Errorf("%s: _sum = %v, want one sample of %d", labels, s, wantSum)
		}
	}
	checkHistogram(`{ds="1",component="wire"}`, values, sum)
	checkHistogram(`{ds="2",component="wire"}`, []uint64{9}, 9)

	// Empty histogram: +Inf bucket of zero, _sum 0, _count 0.
	empty := samples["cards_empty_us_bucket"]
	if len(empty) != 1 || !math.IsInf(empty[0].le, 1) || empty[0].value != 0 {
		t.Errorf("empty histogram buckets = %+v, want single +Inf of 0", empty)
	}
}

// TestPrometheusDescribedMetric checks that a described metric's
// # HELP and # UNIT lines precede its single # TYPE line, and that an
// undescribed one gets neither.
func TestPrometheusDescribedMetric(t *testing.T) {
	reg := NewRegistry()
	reg.Describe("cards_test_on", "bool", "Whether the test feature is on.")
	reg.Gauge("cards_test_on", "shard", "0").Set(1)
	reg.Gauge("cards_test_on", "shard", "1")
	reg.Counter("cards_test_plain_total").Inc()
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP cards_test_on Whether the test feature is on.\n" +
		"# UNIT cards_test_on bool\n" +
		"# TYPE cards_test_on gauge\n" +
		"cards_test_on{shard=\"0\"} 1\n" +
		"cards_test_on{shard=\"1\"} 0\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks the described block %q:\n%s", want, buf.String())
	}
	if strings.Contains(buf.String(), "# HELP cards_test_plain_total") ||
		strings.Contains(buf.String(), "# UNIT cards_test_plain_total") {
		t.Fatalf("undescribed metric got a description:\n%s", buf.String())
	}
}
