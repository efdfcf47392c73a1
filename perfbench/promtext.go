package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// exposition is one scrape of a Prometheus text exposition: every
// sample keyed by its series exactly as written (name plus label set).
type exposition map[string]float64

// parseExposition reads the Prometheus text format. Comment and blank
// lines are skipped; a trailing timestamp after the value is ignored.
func parseExposition(r io.Reader) (exposition, error) {
	out := make(exposition)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the first space outside a label set.
		end := strings.IndexByte(line, ' ')
		if i := strings.IndexByte(line, '{'); i >= 0 && i < end {
			j := strings.LastIndexByte(line, '}')
			if j < 0 {
				return nil, fmt.Errorf("line %d: unterminated label set", n)
			}
			end = j + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("line %d: no value", n)
		}
		fields := strings.Fields(line[end:])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric name, whatever its labels.
func (e exposition) family(name string) float64 {
	var sum float64
	for k, v := range e {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			sum += v
		}
	}
	return sum
}

// sub returns e - base series by series (counters and histogram sums
// over the interval between two scrapes).
func (e exposition) sub(base exposition) exposition {
	out := make(exposition, len(e))
	for k, v := range e {
		out[k] = v - base[k]
	}
	return out
}

// add returns e + o series by series (totals across a fleet).
func (e exposition) add(o exposition) exposition {
	out := make(exposition, len(e))
	for k, v := range e {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// scrape fetches and parses one /metrics exposition.
func scrape(c *http.Client, addr string) (exposition, error) {
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", addr, resp.Status)
	}
	return parseExposition(resp.Body)
}

// waitScrape polls /metrics until the endpoint answers or the deadline
// passes (the metrics listener starts after the data listener).
func waitScrape(c *http.Client, addr string, within time.Duration) (exposition, error) {
	deadline := time.Now().Add(within)
	for {
		e, err := scrape(c, addr)
		if err == nil || time.Now().After(deadline) {
			return e, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}
