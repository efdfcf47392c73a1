// Package interp executes IR programs against the CaRDS runtime. It
// plays the role of the CPU: each instruction charges the virtual clock,
// memory instructions go through the runtime's guard/deref machinery,
// and dsalloc-rewritten allocations carry their data structure handles
// into the allocator — so a compiled program's far-memory behaviour
// (guard counts, faults, network traffic, virtual time) is measured by
// simply running it.
//
// The interpreter enforces the safety property the guard passes are
// meant to establish: a direct load/store of a tagged (remotable)
// address that did not pass through a guard aborts execution with
// ErrUnsafeAccess. Compiler bugs surface as hard failures, not silent
// corruption.
package interp

import (
	"fmt"
	"math"

	"cards/internal/farmem"
	"cards/internal/ir"
)

// Options tunes execution.
type Options struct {
	// MaxSteps bounds total executed instructions (0 = default 1e9).
	MaxSteps uint64
	// MaxDepth bounds the call stack (0 = default 10_000).
	MaxDepth int
}

// Stats reports what an execution did.
type Stats struct {
	Instructions uint64
	Calls        uint64
	MaxDepthSeen int
	// ROICycles is the virtual time spent inside region-of-interest
	// markers (zero when the program declares none).
	ROICycles uint64
}

// Region-of-interest marker functions: a program may declare empty
// functions with these names and call them around its measured kernel
// (the way the GAP benchmarks time BFS trials but not graph building).
// The interpreter intercepts the calls and accumulates the enclosed
// virtual time into Stats.ROICycles.
const (
	ROIBegin = "cards.roi_begin"
	ROIEnd   = "cards.roi_end"
)

// Machine executes one program against one runtime.
type Machine struct {
	mod      *ir.Module
	rt       *farmem.Runtime
	opts     Options
	stats    Stats
	depth    int
	roiStart uint64
	inROI    bool
}

// New creates a machine. The module must verify.
func New(mod *ir.Module, rt *farmem.Runtime, opts Options) (*Machine, error) {
	if err := ir.Verify(mod); err != nil {
		return nil, fmt.Errorf("interp: module does not verify: %w", err)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1_000_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 10_000
	}
	return &Machine{mod: mod, rt: rt, opts: opts}, nil
}

// Stats returns execution statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Run executes main() to completion and returns its result bits (0 for a
// void main). Workload programs return checksums here so correctness can
// be asserted across policies and baselines.
func (m *Machine) Run() (uint64, error) {
	main := m.mod.Main()
	if main == nil {
		return 0, fmt.Errorf("interp: module has no main")
	}
	if len(main.Params) != 0 {
		return 0, fmt.Errorf("interp: main must take no parameters (has %d)", len(main.Params))
	}
	return m.call(main, nil)
}

// frame is one activation record: the register file.
type frame struct {
	regs []uint64
}

func (fr *frame) get(v ir.Value) uint64 {
	switch vv := v.(type) {
	case *ir.Reg:
		return fr.regs[vv.ID]
	case ir.IntConst:
		return uint64(vv.V)
	case ir.FloatConst:
		return math.Float64bits(vv.V)
	}
	panic(fmt.Sprintf("interp: unknown value %T", v))
}

func (fr *frame) set(r *ir.Reg, v uint64) { fr.regs[r.ID] = v }

// call executes one function and returns its result bits.
func (m *Machine) call(f *ir.Function, args []uint64) (uint64, error) {
	m.depth++
	if m.depth > m.opts.MaxDepth {
		m.depth--
		return 0, fmt.Errorf("interp: call depth exceeded in @%s", f.Name)
	}
	if m.depth > m.stats.MaxDepthSeen {
		m.stats.MaxDepthSeen = m.depth
	}
	m.stats.Calls++
	defer func() { m.depth-- }()

	fr := &frame{regs: make([]uint64, len(f.Regs()))}
	for i, p := range f.Params {
		fr.set(p, args[i])
	}

	blk := f.Entry()
	idx := 0
	for {
		if idx >= len(blk.Instrs) {
			return 0, fmt.Errorf("interp: fell off block %s in @%s", blk.Name, f.Name)
		}
		in := blk.Instrs[idx]
		m.stats.Instructions++
		if m.stats.Instructions > m.opts.MaxSteps {
			return 0, fmt.Errorf("interp: step limit (%d) exceeded", m.opts.MaxSteps)
		}
		m.rt.Clock().Advance(m.rt.Model().Instr)

		switch in.Op {
		case ir.OpConst:
			if in.IsFloat {
				fr.set(in.Dst, math.Float64bits(in.FloatVal))
			} else {
				fr.set(in.Dst, uint64(in.IntVal))
			}

		case ir.OpBin:
			v, err := evalBin(in.Kind, fr.get(in.X), fr.get(in.Y))
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.Name, in, err)
			}
			fr.set(in.Dst, v)

		case ir.OpCopy:
			fr.set(in.Dst, fr.get(in.Src))

		case ir.OpAlloc:
			elemSize := int64(in.Elem.Size())
			count := int64(fr.get(in.Count))
			if count < 0 {
				return 0, fmt.Errorf("interp: @%s: negative alloc count %d", f.Name, count)
			}
			var addr uint64
			var err error
			if in.DSHandle != nil {
				ds := int64(fr.get(in.DSHandle))
				addr, err = m.rt.DSAlloc(int(ds), count*elemSize)
			} else {
				addr, err = m.rt.AllocLocal(count * elemSize)
			}
			if err != nil {
				return 0, fmt.Errorf("interp: @%s alloc: %w", f.Name, err)
			}
			fr.set(in.Dst, addr)

		case ir.OpLoad:
			v, err := m.rt.ReadWord(fr.get(in.Addr))
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.Name, in, err)
			}
			fr.set(in.Dst, v)

		case ir.OpStore:
			if err := m.rt.WriteWord(fr.get(in.Addr), fr.get(in.Src)); err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.Name, in, err)
			}

		case ir.OpGEP:
			base := fr.get(in.Base)
			var off uint64
			if in.Index != nil {
				off = fr.get(in.Index) * uint64(in.ElemSize)
			}
			fr.set(in.Dst, base+off+uint64(in.ConstOff))

		case ir.OpGuard:
			var p uint64
			var err error
			if in.StoreOnly {
				p, err = m.rt.GuardStore(fr.get(in.Addr), in.GLo, in.GHi)
			} else {
				p, err = m.rt.GuardSpan(fr.get(in.Addr), in.IsWrite, in.GLo, in.GHi)
			}
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.Name, in, err)
			}
			fr.set(in.Dst, p)

		case ir.OpAllLocal:
			if m.rt.AllLocal(in.DSRefs) {
				fr.set(in.Dst, 1)
			} else {
				fr.set(in.Dst, 0)
			}

		case ir.OpPrefetch:
			m.rt.Prefetch(fr.get(in.Addr))

		case ir.OpCall:
			switch in.Callee {
			case ROIBegin:
				m.roiStart = m.rt.Clock().Now()
				m.inROI = true
				idx++
				continue
			case ROIEnd:
				if m.inROI {
					m.stats.ROICycles += m.rt.Clock().Now() - m.roiStart
					m.inROI = false
				}
				idx++
				continue
			}
			callee := m.mod.FuncByName(in.Callee)
			args := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				args[i] = fr.get(a)
			}
			ret, err := m.call(callee, args)
			if err != nil {
				return 0, err
			}
			if in.Dst != nil {
				fr.set(in.Dst, ret)
			}

		case ir.OpRet:
			if in.Src != nil {
				return fr.get(in.Src), nil
			}
			return 0, nil

		case ir.OpBr:
			if fr.get(in.Cond) != 0 {
				blk, idx = in.Then, 0
			} else {
				blk, idx = in.Else, 0
			}
			continue

		case ir.OpJmp:
			blk, idx = in.Target, 0
			continue

		default:
			return 0, fmt.Errorf("interp: @%s: unexecutable op %s", f.Name, in.Op)
		}
		idx++
	}
}

// evalBin evaluates a binary operator on raw register bits.
func evalBin(kind ir.BinKind, x, y uint64) (uint64, error) {
	b := func(cond bool) uint64 {
		if cond {
			return 1
		}
		return 0
	}
	xi, yi := int64(x), int64(y)
	switch kind {
	case ir.Add:
		return uint64(xi + yi), nil
	case ir.Sub:
		return uint64(xi - yi), nil
	case ir.Mul:
		return uint64(xi * yi), nil
	case ir.Div:
		if yi == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return uint64(xi / yi), nil
	case ir.Rem:
		if yi == 0 {
			return 0, fmt.Errorf("integer remainder by zero")
		}
		return uint64(xi % yi), nil
	case ir.And:
		return x & y, nil
	case ir.Or:
		return x | y, nil
	case ir.Xor:
		return x ^ y, nil
	case ir.Shl:
		return x << (y & 63), nil
	case ir.Shr:
		return x >> (y & 63), nil
	case ir.EQ:
		return b(xi == yi), nil
	case ir.NE:
		return b(xi != yi), nil
	case ir.LT:
		return b(xi < yi), nil
	case ir.LE:
		return b(xi <= yi), nil
	case ir.GT:
		return b(xi > yi), nil
	case ir.GE:
		return b(xi >= yi), nil
	case ir.FAdd:
		return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y)), nil
	case ir.FSub:
		return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y)), nil
	case ir.FMul:
		return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y)), nil
	case ir.FDiv:
		return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y)), nil
	case ir.FLT:
		return b(math.Float64frombits(x) < math.Float64frombits(y)), nil
	case ir.IToF:
		return math.Float64bits(float64(int64(x))), nil
	}
	return 0, fmt.Errorf("unknown binary op %v", kind)
}
