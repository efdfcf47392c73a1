package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteJSON renders the snapshot as indented JSON (the /stats payload).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4, the /metrics payload). Counters and gauges map
// directly; each histogram becomes the conventional _bucket (cumulative,
// le-labelled) / _sum / _count triple. Series are emitted in lexical
// order so the output is deterministic. A metric described in the
// registry (Registry.Describe) gets # HELP and # UNIT lines ahead of
// its # TYPE line.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool) // base name -> TYPE line emitted
	emitType := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		if d, ok := s.Docs[base]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# UNIT %s %s\n", base, d.Help, base, d.Unit); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, k := range sortedKeys(s.Counters) {
		if err := emitType(baseName(k), "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if err := emitType(baseName(k), "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		if err := emitType(baseName(k), "histogram"); err != nil {
			return err
		}
		if err := writePromHistogram(w, k, s.Histograms[k]); err != nil {
			return err
		}
	}
	return nil
}

// baseName strips the label block from a series key.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// seriesWithLabel re-renders a series key with one extra label appended
// (used for the le label of histogram buckets).
func seriesWithLabel(key, name, k, v string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return name + key[i:len(key)-1] + "," + k + `="` + v + `"}`
	}
	return name + "{" + k + `="` + v + `"}`
}

func writePromHistogram(w io.Writer, key string, h HistogramSnapshot) error {
	base := baseName(key)
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		le := fmt.Sprintf("%d", b.Le)
		if b.Le == math.MaxUint64 {
			le = "+Inf"
		}
		if _, err := fmt.Fprintf(w, "%s %d\n",
			seriesWithLabel(key, base+"_bucket", "le", le), cum); err != nil {
			return err
		}
	}
	if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].Le != math.MaxUint64 {
		if _, err := fmt.Fprintf(w, "%s %d\n",
			seriesWithLabel(key, base+"_bucket", "le", "+Inf"), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel0(key, base+"_sum"), h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesWithLabel0(key, base+"_count"), h.Count)
	return err
}

// seriesWithLabel0 re-renders a series key under a new base name,
// preserving its label block.
func seriesWithLabel0(key, name string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return name + key[i:]
	}
	return name
}
