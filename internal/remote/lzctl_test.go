package remote

import (
	"math/rand"
	"strings"
	"testing"
)

// lzRun drives a controller with synthetic read latencies: each sample
// is sent under the controller's current mode and completes after
// latency(lz, rng) ns. It returns the switch count, the sample index of
// the first switch (-1 if none), and fails the test whenever the
// cumulative probe-mode share exceeds lzMaxProbeShare.
func lzRun(t *testing.T, c *lzController, samples int, latency func(lz bool, rng *rand.Rand) int64) (switches, first int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	first = -1
	probes := 0
	for i := 1; i <= samples; i++ {
		lz := c.lz()
		probeOp, switched := c.observe(lz, latency(lz, rng))
		if probeOp {
			probes++
		}
		if share := float64(probes) / float64(i); share > lzMaxProbeShare {
			t.Fatalf("sample %d: probe share %.3f exceeds the bound %.3f", i, share, lzMaxProbeShare)
		}
		if switched {
			switches++
			if first < 0 {
				first = i
			}
		}
	}
	return switches, first
}

// jittered returns mean ns scaled by a uniform draw in [1-j, 1+j].
func jittered(rng *rand.Rand, mean, j float64) int64 {
	return int64(mean * (1 - j + 2*j*rng.Float64()))
}

const lzEpochs100 = 100 * lzEpoch

func TestLZControllerSwitchesToRawWhenRawIsFaster(t *testing.T) {
	c := newLZController()
	switches, first := lzRun(t, c, lzEpochs100, func(lz bool, rng *rand.Rand) int64 {
		if lz {
			return jittered(rng, 200_000, 0.2)
		}
		return jittered(rng, 100_000, 0.2)
	})
	// The first probe starts after lzMinGap home epochs; the verdict
	// lands at the end of the home epoch that follows it.
	bound := (lzMinGap+2)*lzEpoch + 2*lzSettle
	if first < 0 || first > bound {
		t.Fatalf("first switch at sample %d, want within %d samples", first, bound)
	}
	if c.on || switches != 1 {
		t.Fatalf("LZ on=%v after %d switches, want off after exactly 1", c.on, switches)
	}
}

func TestLZControllerKeepsLZWhenRawIsSlower(t *testing.T) {
	c := newLZController()
	switches, _ := lzRun(t, c, lzEpochs100, func(lz bool, rng *rand.Rand) int64 {
		if lz {
			return jittered(rng, 100_000, 0.2)
		}
		return jittered(rng, 200_000, 0.2)
	})
	if !c.on || switches != 0 {
		t.Fatalf("LZ on=%v after %d switches, want on with none", c.on, switches)
	}
	if c.gap <= lzMinGap {
		t.Fatalf("probe gap %d did not back off after losing probes", c.gap)
	}
}

func TestLZControllerStableOnEqualMeans(t *testing.T) {
	c := newLZController()
	switches, _ := lzRun(t, c, lzEpochs100, func(_ bool, rng *rand.Rand) int64 {
		return jittered(rng, 150_000, 0.2)
	})
	if switches > 2 {
		t.Fatalf("%d switches over 100 epochs of equal means, want at most 2", switches)
	}
}

// A stall inside one home epoch inflates that epoch's mean; the A/B/A
// verdict needs the probe to beat the home epoch on each side, so one
// stalled neighbour cannot buy a switch.
func TestLZControllerIgnoresOneStalledHomeEpoch(t *testing.T) {
	c := newLZController()
	lzRun(t, c, lzEpochs100, func(lz bool, rng *rand.Rand) int64 {
		if lz && c.left == 1 && !c.probe {
			return 2_000_000 // the home epoch right before each probe stalls
		}
		return jittered(rng, 150_000, 0.2)
	})
	if !c.on {
		t.Fatal("a stalled home epoch switched LZ off")
	}
}

func TestLZControllerNoSamplesKeepsLZ(t *testing.T) {
	c := newLZController()
	if !c.lz() || !c.on {
		t.Fatal("a fresh controller must start with LZ on")
	}
	// Samples sent under the mode that is not running are dropped.
	for i := 0; i < 10*lzEpoch; i++ {
		if probeOp, switched := c.observe(false, 1); probeOp || switched {
			t.Fatal("a stale-mode sample moved the controller")
		}
	}
	if !c.lz() || c.n != 0 || c.settle != 0 {
		t.Fatalf("stale samples were counted: lz=%v n=%d", c.lz(), c.n)
	}
}

func TestParseCompression(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		adaptive bool
		ok       bool
	}{
		{"", true, true},
		{"adaptive", true, true},
		{"off", false, true},
		{"auto", false, false},
		{"Off", false, false},
		{"on", false, false},
		{"lz", false, false},
		{" off", false, false},
	} {
		adaptive, err := ParseCompression(tc.mode)
		if (err == nil) != tc.ok || adaptive != tc.adaptive {
			t.Errorf("ParseCompression(%q) = %v, %v; want adaptive=%v ok=%v", tc.mode, adaptive, err, tc.adaptive, tc.ok)
		}
		if tc.ok {
			continue
		}
		// The mode is checked before any dial: the error names it.
		if _, err := DialPipelined("127.0.0.1:1", PipelineOpts{Compression: tc.mode}); err == nil ||
			!strings.Contains(err.Error(), "unknown Compression mode") {
			t.Errorf("DialPipelined(Compression %q) = %v, want the mode rejected", tc.mode, err)
		}
		if _, err := DialResilient("127.0.0.1:1", DialConfig{Compression: tc.mode}); err == nil ||
			!strings.Contains(err.Error(), "unknown Compression mode") {
			t.Errorf("DialResilient(Compression %q) = %v, want the mode rejected", tc.mode, err)
		}
	}
}
