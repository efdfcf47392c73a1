package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack as function names, leaf first, and its CPU time.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, innermost (leaf) frame first
	ns    int64
}

// totalS is the CPU time the profile's samples cover, in seconds.
func (p *cpuProfile) totalS() float64 {
	var ns int64
	for _, s := range p.samples {
		ns += s.ns
	}
	return float64(ns) / 1e9
}

// parseProfile decodes a (gzip-compressed) pprof protobuf as written by
// runtime/pprof and served by net/http/pprof. Only the fields below are
// read; profile.proto numbers them:
//
//	Profile:  1 sample_type, 2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line
//	Line:     1 function_id (line[0] is the innermost inlined frame)
//	Function: 1 id, 2 name
//	ValueType: 1 type, 2 unit
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		unitIdx   []int64 // sample_type units, as string indices
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unitIdx = append(unitIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, pb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wt, v, pb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); use the
	// nanoseconds column.
	col := -1
	for i, u := range unitIdx {
		if str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no nanoseconds sample column")
	}
	p := &cpuProfile{}
	for _, r := range raws {
		if col >= len(r.values) {
			continue
		}
		s := profSample{ns: r.values[col]}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendVarints appends one repeated varint field occurrence, packed
// (wire type 2) or not (wire type 0).
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// CPU attribution classes. A sample is charged to gc when any frame of
// its stack belongs to the collector, to syscall when its leaf frame is
// a system-call wrapper, and otherwise to the module of its leaf frame,
// where runtime and standard-library leaves (memmove, mallocgc, map
// access, ...) are charged to their nearest caller in this repository.
const (
	cpuInterp  = "interp"
	cpuFarmem  = "farmem"
	cpuRemote  = "remote"
	cpuRdma    = "rdma"
	cpuReplica = "replica"
	cpuSyscall = "syscall"
	cpuGC      = "gc"
	cpuOther   = "other"
)

// cpuClasses lists the classes in report order.
var cpuClasses = []string{cpuInterp, cpuFarmem, cpuRemote, cpuRdma, cpuReplica, cpuSyscall, cpuGC, cpuOther}

// moduleClass maps a package of this repository to its class.
var moduleClass = map[string]string{
	"cards/internal/interp":   cpuInterp,
	"cards/internal/farmem":   cpuFarmem,
	"cards/internal/prefetch": cpuFarmem,
	"cards/internal/remote":   cpuRemote,
	"cards/internal/rdma":     cpuRdma,
	"cards/internal/replica":  cpuReplica,
	"cards/internal/shardmap": cpuReplica,
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.GC":             true,
}

// syscallLeaves are runtime functions that are thin system-call
// wrappers (the rest are recognised by package).
var syscallLeaves = map[string]bool{
	"runtime.futex":     true,
	"runtime.epollwait": true,
	"runtime.epollctl":  true,
	"runtime.write1":    true,
	"runtime.read":      true,
	"runtime.usleep":    true,
	"runtime.osyield":   true,
	"runtime.madvise":   true,
	"runtime.mmap":      true,
	"runtime.munmap":    true,
	"runtime.tgkill":    true,
}

var syscallPackages = map[string]bool{
	"syscall":                  true,
	"internal/runtime/syscall": true,
	"runtime/internal/syscall": true,
	"internal/syscall/unix":    true,
}

// funcPackage returns the import path of a symbol such as
// "cards/internal/remote.(*PipelinedClient).readLoop".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify returns the attribution class of one sample's stack.
func classify(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return cpuGC
		}
	}
	if len(stack) == 0 {
		return cpuOther
	}
	if syscallLeaves[stack[0]] || syscallPackages[funcPackage(stack[0])] {
		return cpuSyscall
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		if c, ok := moduleClass[pkg]; ok {
			return c
		}
		if strings.HasPrefix(pkg, "cards/") || pkg == "main" {
			return cpuOther
		}
	}
	return cpuOther
}

// attribute sums the profile's CPU seconds per class.
func (p *cpuProfile) attribute() map[string]float64 {
	out := make(map[string]float64, len(cpuClasses))
	for _, c := range cpuClasses {
		out[c] = 0
	}
	for _, s := range p.samples {
		out[classify(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}
