package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is the kernel's USER_HZ, the unit of the utime/stime
// fields of /proc/<pid>/stat. It is 100 on every mainstream Linux
// build; the standard library offers no sysconf to read it.
const clockTicks = 100

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	cpuS   float64 // utime + stime
	syscr  uint64  // read-class syscalls
	syscw  uint64  // write-class syscalls
	hwmKiB uint64  // peak resident set (VmHWM)
}

// readProc samples /proc/<pid>/{stat,io,status}; pid "self" reads the
// calling process.
func readProc(pid string) (procSample, error) {
	var s procSample
	dir := "/proc/" + pid + "/"
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	if s.cpuS, err = parseStatCPU(string(stat)); err != nil {
		return s, fmt.Errorf("%sstat: %w", dir, err)
	}
	io, err := os.ReadFile(dir + "io")
	if err != nil {
		return s, err
	}
	kv := parseKV(string(io))
	s.syscr, s.syscw = kv["syscr"], kv["syscw"]
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	kv = parseKV(string(status))
	s.hwmKiB = kv["VmHWM"]
	return s, nil
}

// parseStatCPU returns utime+stime in seconds from a /proc/<pid>/stat
// line. The command name may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after comm", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// parseKV reads "key: value [unit]" lines (the shape of /proc/<pid>/io
// and /proc/<pid>/status), keeping the first number of each value.
func parseKV(text string) map[string]uint64 {
	out := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}
