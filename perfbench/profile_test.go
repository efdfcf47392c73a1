package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x += i ^ x
		}
	}
	return x
}

// TestParseProfile decodes a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.totalS() < 0.1 {
		t.Fatalf("profile covers %.3fs of a 300ms spin", p.totalS())
	}
	found := false
	for _, s := range p.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".spinForProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample names the spinning function")
	}
	var sum float64
	for _, v := range p.attribute() {
		sum += v
	}
	if d := sum - p.totalS(); d > 1e-9 || d < -1e-9 {
		t.Errorf("attribution sums to %v of %v", sum, p.totalS())
	}
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"cards/internal/interp.(*Machine).step", "main.main"}, cpuInterp},
		{[]string{"runtime.memmove", "cards/internal/rdma.(*Encoder).Put", "cards/internal/remote.(*PipelinedClient).flush"}, cpuRdma},
		{[]string{"runtime.mallocgc", "cards/internal/prefetch.(*Strided).OnAccess"}, cpuFarmem},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "cards/internal/remote.(*PipelinedClient).writeLoop"}, cpuSyscall},
		{[]string{"runtime.futex", "runtime.notesleep"}, cpuSyscall},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, cpuGC},
		{[]string{"runtime.memmove", "runtime.mallocgc", "runtime.gcAssistAlloc", "cards/internal/farmem.(*Runtime).Deref"}, cpuGC},
		{[]string{"cards/internal/shardmap.(*Map).Rank"}, cpuReplica},
		{[]string{"cards/internal/obs.(*Registry).Counter", "cards/internal/remote.x"}, cpuOther},
		{[]string{"runtime.schedule", "runtime.mcall"}, cpuOther},
		{nil, cpuOther},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
	if got := funcPackage("cards/internal/remote.(*PipelinedClient).readLoop"); got != "cards/internal/remote" {
		t.Errorf("funcPackage = %q", got)
	}
	if got := funcPackage("runtime.futex"); got != "runtime" {
		t.Errorf("funcPackage = %q", got)
	}
}

func TestParseStat(t *testing.T) {
	// The command name contains a space and a parenthesis.
	line := "11428 (cards d)) S 1 11427 11423 0 -1 4194560 2110 0 0 0 44 33 0 0 20 0 8 0 220233 1793363968 3423"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(44+33) / clockTicks; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	kv := parseKV("syscr: 69424\nsyscw: 46419\nVmHWM:\t   13764 kB\n")
	if kv["syscr"] != 69424 || kv["syscw"] != 46419 || kv["VmHWM"] != 13764 {
		t.Errorf("parseKV = %v", kv)
	}
}
