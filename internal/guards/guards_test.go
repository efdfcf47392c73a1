package guards

import (
	"strings"
	"testing"

	"cards/internal/analysis"
	"cards/internal/dsa"
	"cards/internal/ir"
	"cards/internal/poolalloc"
)

// compile runs the pass pipeline up to (and including) guards.
func compile(t *testing.T, m *ir.Module, opts Options) (*dsa.Result, *analysis.Result, *Result) {
	t.Helper()
	ds := dsa.Analyze(m)
	poolalloc.Transform(m, ds)
	an := analysis.Analyze(m, ds)
	g := Transform(m, ds, an, opts)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("post-guards verify: %v\n%s", err, m)
	}
	return ds, an, g
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op == op {
			n++
		}
		return true
	})
	return n
}

func TestGuardsInsertedListing1(t *testing.T) {
	m := ir.BuildListing1(64, 2)
	_, _, g := compile(t, m, DefaultOptions())

	if g.GuardsInserted == 0 {
		t.Fatal("no guards inserted")
	}
	// Set's store goes through a guard: the store's address operand is a
	// guard result.
	set := m.FuncByName("Set")
	guarded := false
	set.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op == ir.OpStore {
			if r, ok := in.Addr.(*ir.Reg); ok {
				set.Instrs(func(_ *ir.Block, _ int, def *ir.Instr) bool {
					if def.Dst == r && def.Op == ir.OpGuard {
						guarded = true
					}
					return true
				})
			}
		}
		return true
	})
	if !guarded {
		t.Fatalf("Set's store is not guarded:\n%s", set)
	}
}

func TestCodeVersioningListing1(t *testing.T) {
	m := ir.BuildListing1(64, 2)
	_, _, g := compile(t, m, DefaultOptions())

	if g.LoopsVersioned == 0 {
		t.Fatal("no loops versioned")
	}
	// Set must now contain a cards_all_local check and a .fast clone of
	// its loop whose store is unguarded (Listing 3).
	set := m.FuncByName("Set")
	if countOp(set, ir.OpAllLocal) != 1 {
		t.Fatalf("Set all_local count = %d, want 1:\n%s", countOp(set, ir.OpAllLocal), set)
	}
	text := set.String()
	if !strings.Contains(text, ".fast") {
		t.Fatalf("no fast clone blocks in Set:\n%s", text)
	}
	// Fast blocks contain no guards.
	for _, b := range set.Blocks {
		if !strings.HasSuffix(b.Name, ".fast") {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpGuard {
				t.Fatalf("guard in fast block %s: %s", b.Name, in)
			}
		}
	}
	// The preheader branches on the all_local result.
	entry := set.Entry()
	term := entry.Term()
	if term.Op != ir.OpBr {
		t.Fatalf("preheader terminator = %s, want br", term)
	}
}

func TestRedundantGuardEliminationFields(t *testing.T) {
	// Two loads of different fields of the same node object: one guard.
	m := ir.NewModule("fields")
	node := ir.NewStruct("node", ir.F("a", ir.I64()), ir.F("b", ir.I64()))
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	p := b.Alloc(node, ir.CI(1))
	// Force pointer-chase-free direct use in a loop so guards land.
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
	b.Load(ir.I64(), b.FieldAddr(p, node, "a"))
	b.Load(ir.I64(), b.FieldAddr(p, node, "b"))
	b.CloseLoop(loop)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	_, _, g := compile(t, m, Options{ElideRedundant: true})
	if g.GuardsInserted != 1 {
		t.Errorf("GuardsInserted = %d, want 1 (same 4K object)", g.GuardsInserted)
	}
	if g.GuardsElided != 1 {
		t.Errorf("GuardsElided = %d, want 1", g.GuardsElided)
	}
}

func TestRGEDisabledInsertsBoth(t *testing.T) {
	m := ir.NewModule("fields2")
	node := ir.NewStruct("node", ir.F("a", ir.I64()), ir.F("b", ir.I64()))
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	p := b.Alloc(node, ir.CI(1))
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
	b.Load(ir.I64(), b.FieldAddr(p, node, "a"))
	b.Load(ir.I64(), b.FieldAddr(p, node, "b"))
	b.CloseLoop(loop)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	_, _, g := compile(t, m, Options{ElideRedundant: false})
	if g.GuardsInserted != 2 {
		t.Errorf("GuardsInserted = %d, want 2 without RGE", g.GuardsInserted)
	}
	if g.GuardsElided != 0 {
		t.Errorf("GuardsElided = %d, want 0", g.GuardsElided)
	}
}

func TestWriteAfterReadGuardNotElided(t *testing.T) {
	// Read then write of the same object: the write needs its own guard
	// (dirty tracking), so only a read->read pair may elide.
	m := ir.NewModule("waw")
	node := ir.NewStruct("node", ir.F("a", ir.I64()), ir.F("b", ir.I64()))
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	p := b.Alloc(node, ir.CI(1))
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
	v := b.Load(ir.I64(), b.FieldAddr(p, node, "a"))
	b.Store(ir.I64(), v, b.FieldAddr(p, node, "b"))
	b.CloseLoop(loop)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	_, _, g := compile(t, m, Options{ElideRedundant: true})
	if g.GuardsInserted != 2 {
		t.Errorf("GuardsInserted = %d, want 2 (write after read)", g.GuardsInserted)
	}
	// And a subsequent read after the write IS covered by the write guard.
	m2 := ir.NewModule("war")
	f2 := m2.NewFunc("main", ir.Void())
	b2 := ir.NewBuilder(f2)
	p2 := b2.Alloc(node, ir.CI(1))
	loop2 := b2.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
	b2.Store(ir.I64(), ir.CI(1), b2.FieldAddr(p2, node, "a"))
	b2.Load(ir.I64(), b2.FieldAddr(p2, node, "b"))
	b2.CloseLoop(loop2)
	b2.Ret(nil)
	m2.AssignSites()
	ir.MustVerify(m2)
	_, _, g2 := compile(t, m2, Options{ElideRedundant: true})
	if g2.GuardsInserted != 1 || g2.GuardsElided != 1 {
		t.Errorf("write-then-read: inserted=%d elided=%d, want 1/1",
			g2.GuardsInserted, g2.GuardsElided)
	}
}

func TestGuardCoverageDroppedAcrossCalls(t *testing.T) {
	// A call between two accesses to the same object must re-guard: the
	// callee may evict the object.
	m := ir.NewModule("callbarrier")
	node := ir.NewStruct("node", ir.F("a", ir.I64()), ir.F("b", ir.I64()))
	noop := m.NewFunc("noop", ir.Void())
	ir.NewBuilder(noop).Ret(nil)
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	p := b.Alloc(node, ir.CI(1))
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
	b.Load(ir.I64(), b.FieldAddr(p, node, "a"))
	b.Call(noop)
	b.Load(ir.I64(), b.FieldAddr(p, node, "b"))
	b.CloseLoop(loop)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	_, _, g := compile(t, m, Options{ElideRedundant: true})
	if g.GuardsInserted != 2 {
		t.Errorf("GuardsInserted = %d, want 2 (call is a barrier)", g.GuardsInserted)
	}
}

func TestVersionedCloneComputesSameThing(t *testing.T) {
	// Structural check: after versioning, the original guarded loop and
	// the fast clone contain the same number of stores.
	m := ir.BuildListing1(64, 2)
	compile(t, m, DefaultOptions())
	set := m.FuncByName("Set")
	var guardedStores, fastStores int
	for _, b := range set.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore {
				if strings.HasSuffix(b.Name, ".fast") {
					fastStores++
				} else {
					guardedStores++
				}
			}
		}
	}
	if guardedStores != fastStores {
		t.Errorf("stores guarded=%d fast=%d, want equal", guardedStores, fastStores)
	}
	if fastStores == 0 {
		t.Error("fast clone has no stores")
	}
}

func TestInductionOnlyElisionNarrower(t *testing.T) {
	// TrackFM-style elision must elide no more than CaRDS elision.
	build := func() *ir.Module {
		m := ir.NewModule("cmp")
		node := ir.NewStruct("node", ir.F("a", ir.I64()), ir.F("b", ir.I64()))
		f := m.NewFunc("main", ir.Void())
		b := ir.NewBuilder(f)
		p := b.Alloc(node, ir.CI(1))
		loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
		b.Load(ir.I64(), b.FieldAddr(p, node, "a"))
		b.Load(ir.I64(), b.FieldAddr(p, node, "b"))
		b.CloseLoop(loop)
		b.Ret(nil)
		m.AssignSites()
		ir.MustVerify(m)
		return m
	}
	_, _, cards := compile(t, build(), Options{ElideRedundant: true})
	_, _, tfm := compile(t, build(), Options{ElideRedundant: true, InductionOnlyElision: true})
	if tfm.GuardsElided > cards.GuardsElided {
		t.Errorf("TrackFM-style elided %d > CaRDS %d", tfm.GuardsElided, cards.GuardsElided)
	}
	// This particular pattern (field aliases, non-IV base) is exactly
	// what TrackFM misses.
	if tfm.GuardsElided != 0 {
		t.Errorf("induction-only elision should miss field aliases, elided %d", tfm.GuardsElided)
	}
	if cards.GuardsElided != 1 {
		t.Errorf("CaRDS elision should catch field aliases, elided %d", cards.GuardsElided)
	}
}

// writeGuards returns the write guards of main in program order.
func writeGuards(m *ir.Module) []*ir.Instr {
	var gs []*ir.Instr
	m.FuncByName("main").Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op == ir.OpGuard && in.IsWrite {
			gs = append(gs, in)
		}
		return true
	})
	return gs
}

// TestStoreOnlyGuards: a fresh write guard covers exactly its own store
// (store-only, span = the store's width); redundant-guard-elimination
// reuse by a load or by a second store clears the mark.
func TestStoreOnlyGuards(t *testing.T) {
	node := ir.NewStruct("node", ir.F("a", ir.I64()), ir.F("b", ir.F64()))
	build := func(body func(b *ir.Builder, p ir.Value)) *ir.Module {
		m := ir.NewModule("storeonly")
		f := m.NewFunc("main", ir.Void())
		b := ir.NewBuilder(f)
		p := b.Alloc(node, ir.CI(1))
		loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
		body(b, p)
		b.CloseLoop(loop)
		b.Ret(nil)
		m.AssignSites()
		ir.MustVerify(m)
		compile(t, m, DefaultOptions())
		return m
	}

	m := build(func(b *ir.Builder, p ir.Value) {
		b.Store(ir.F64(), ir.CI(7), b.FieldAddr(p, node, "b"))
	})
	gs := writeGuards(m)
	if len(gs) != 1 {
		t.Fatalf("%d write guards, want 1", len(gs))
	}
	if g := gs[0]; !g.StoreOnly || g.GLo != 0 || g.GHi != 8 {
		t.Fatalf("lone f64 store: StoreOnly=%v span [%d,%d), want store-only [0,8)", g.StoreOnly, g.GLo, g.GHi)
	}

	// A store typed as an aggregate still writes one word: its span
	// over-claims, so the guard keeps the span but is not store-only.
	gs = writeGuards(build(func(b *ir.Builder, p ir.Value) {
		b.Store(node, ir.CI(7), p)
	}))
	if len(gs) != 1 {
		t.Fatalf("aggregate store: %d write guards, want 1", len(gs))
	}
	if g := gs[0]; g.StoreOnly || g.GHi != node.Size() {
		t.Fatalf("aggregate store: StoreOnly=%v span [%d,%d), want not store-only, span [0,%d)",
			g.StoreOnly, g.GLo, g.GHi, node.Size())
	}

	for name, body := range map[string]func(b *ir.Builder, p ir.Value){
		"load reuse": func(b *ir.Builder, p ir.Value) {
			b.Store(ir.I64(), ir.CI(1), b.FieldAddr(p, node, "a"))
			b.Load(ir.F64(), b.FieldAddr(p, node, "b"))
		},
		"store reuse": func(b *ir.Builder, p ir.Value) {
			b.Store(ir.I64(), ir.CI(1), b.FieldAddr(p, node, "a"))
			b.Store(ir.F64(), ir.CI(2), b.FieldAddr(p, node, "b"))
		},
	} {
		gs := writeGuards(build(body))
		if len(gs) != 1 {
			t.Fatalf("%s: %d write guards, want 1 (the second access elided)", name, len(gs))
		}
		if gs[0].StoreOnly {
			t.Errorf("%s: the reused guard is still store-only", name)
		}
	}
}
