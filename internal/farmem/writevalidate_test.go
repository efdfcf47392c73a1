package farmem

import (
	"errors"
	"sync"
	"testing"

	"cards/internal/rdma"
)

const (
	wvObj   = 256 // 32 rows of one 8-byte word
	wvElem  = 8
	wvWords = wvObj / wvElem
)

// wvStore is a fault-injecting range store: range writes splice only
// the extents' bytes (anything else in src may be garbage for a
// write-validated object), reads can be made to fail, range writes can
// be failed or held in flight, and every far-tier read is counted.
type wvStore struct {
	*MapStore
	mu         sync.Mutex
	reads      int
	readErr    error         // non-nil: every read fails with it
	rangeFails int           // the next n range writes fail
	hold       chan struct{} // non-nil: range writes land once it closes
}

func newWVStore() *wvStore { return &wvStore{MapStore: NewMapStore()} }

func (s *wvStore) ReadObj(ds, idx int, dst []byte) error {
	s.mu.Lock()
	s.reads++
	err := s.readErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.MapStore.ReadObj(ds, idx, dst)
}

func (s *wvStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	done(s.WriteObj(ds, idx, src))
}

func (s *wvStore) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	s.mu.Lock()
	fail := s.rangeFails > 0
	if fail {
		s.rangeFails--
	}
	hold := s.hold
	s.mu.Unlock()
	var raw []byte
	for _, e := range exts {
		raw = append(raw, src[e.Off:e.Off+e.Len]...)
	}
	exts = append([]rdma.Extent(nil), exts...)
	apply := func() {
		if fail {
			done(errInjected)
			return
		}
		cur := make([]byte, len(src))
		s.MapStore.ReadObj(ds, idx, cur)
		off := uint32(0)
		for _, e := range exts {
			copy(cur[e.Off:e.Off+e.Len], raw[off:off+e.Len])
			off += e.Len
		}
		done(s.WriteObj(ds, idx, cur))
	}
	if hold != nil {
		go func() { <-hold; apply() }()
		return
	}
	apply()
}

func (s *wvStore) set(f func(s *wvStore)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

func (s *wvStore) readCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads
}

// word reads word w of object idx from the far tier, bypassing faults.
func (s *wvStore) word(t *testing.T, idx, w int) uint64 {
	t.Helper()
	buf := make([]byte, wvObj)
	s.MapStore.ReadObj(0, idx, buf)
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[w*8+i])
	}
	return v
}

func base(w int) uint64 { return 0x1000 + uint64(w) }

// wvRuntime returns a two-object cache over store whose object 0 sits
// on the far tier holding base(w) in every word w.
func wvRuntime(t *testing.T, store Store, wbBudget uint64) (*Runtime, uint64) {
	t.Helper()
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: 2 * wvObj,
		Store: store, WriteBackBudget: wbBudget,
	})
	r.RegisterDS(0, DSMeta{ObjSize: wvObj, ElemSize: wvElem})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 64*wvObj)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < wvWords; w++ {
		p, err := r.Guard(addr+uint64(8*w), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, base(w))
	}
	if err := evictWV(r, addr); err != nil {
		t.Fatal(err)
	}
	if r.DSByID(0).objs[0].state != objRemote {
		t.Fatal("object 0 not evicted by the seeding walk")
	}
	return r, addr
}

// evictWV pushes object 0 out of the two-object cache, then drains.
func evictWV(r *Runtime, addr uint64) error {
	if err := touchFresh(r, addr); err != nil {
		return err
	}
	return r.DrainWriteBacks()
}

// touchFresh touches two never-used objects — cold materializations,
// no far-tier reads — so the least recently used resident object
// (object 0 in these tests) is evicted.
func touchFresh(r *Runtime, addr uint64) error {
	d := r.DSByID(0)
	for n, i := 0, 1; n < 2; i++ {
		if d.objs[i].state != objUninit {
			continue
		}
		if _, err := r.Guard(addr+uint64(i*wvObj), false); err != nil {
			return err
		}
		n++
	}
	return nil
}

func storeOnly(t *testing.T, r *Runtime, addr uint64, w int, v uint64) {
	t.Helper()
	p, err := r.GuardStore(addr+uint64(8*w), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(p, v)
}

func load(r *Runtime, addr uint64, w int) (uint64, error) {
	p, err := r.Guard(addr+uint64(8*w), false)
	if err != nil {
		return 0, err
	}
	return r.ReadWord(p)
}

// TestWriteValidateSkipsFetch: store-only misses on a remote object
// fetch nothing, adjacent rows grow one exact rectangle, and the
// eviction ships exactly the written extents — the far tier keeps every
// other byte.
func TestWriteValidateSkipsFetch(t *testing.T) {
	store := newWVStore()
	r, addr := wvRuntime(t, store, 0)
	reads := store.readCount()
	for w := 3; w <= 5; w++ {
		storeOnly(t, r, addr, w, 0xAA00+uint64(w))
	}
	obj := &r.DSByID(0).objs[0]
	if !obj.partial || !obj.dirty {
		t.Fatalf("after store-only misses: partial=%v dirty=%v, want both", obj.partial, obj.dirty)
	}
	if got := store.readCount() - reads; got != 0 {
		t.Fatalf("store-only misses read the far tier %d times, want 0", got)
	}
	st := r.Stats()
	if st.WriteValidates != 1 || st.PartialFills != 0 {
		t.Fatalf("WriteValidates=%d PartialFills=%d, want 1/0", st.WriteValidates, st.PartialFills)
	}
	if err := evictWV(r, addr); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.RangeWriteBacks != 1 { // the seed's eviction was a full write
		t.Fatalf("RangeWriteBacks=%d, want the partial eviction to ship extents", st.RangeWriteBacks)
	}
	for w := 0; w < wvWords; w++ {
		want := base(w)
		if w >= 3 && w <= 5 {
			want = 0xAA00 + uint64(w)
		}
		if got := store.word(t, 0, w); got != want {
			t.Fatalf("far word %d = %#x, want %#x", w, got, want)
		}
	}
}

// TestWriteValidateWholeObject: store-only writes that cover every byte
// leave a whole image — no fill, a full write-back.
func TestWriteValidateWholeObject(t *testing.T) {
	store := newWVStore()
	r, addr := wvRuntime(t, store, 0)
	for w := 0; w < wvWords; w++ {
		storeOnly(t, r, addr, w, 0xBB00+uint64(w))
	}
	if r.DSByID(0).objs[0].partial {
		t.Fatal("object still partial after every byte was written")
	}
	if v, err := load(r, addr, 9); err != nil || v != 0xBB09 {
		t.Fatalf("load word 9 = %#x, %v; want 0xbb09 without a fill", v, err)
	}
	if st := r.Stats(); st.PartialFills != 0 {
		t.Fatalf("PartialFills=%d, want 0", st.PartialFills)
	}
}

// TestWriteValidateNoExactExtension: a store whose span does not grow
// the rectangle exactly fills first and then dirties as usual.
func TestWriteValidateNoExactExtension(t *testing.T) {
	store := newWVStore()
	r, addr := wvRuntime(t, store, 0)
	storeOnly(t, r, addr, 3, 0xCC03)
	storeOnly(t, r, addr, 9, 0xCC09) // gap: rows 4..8 unwritten
	if st := r.Stats(); st.PartialFills != 1 || r.DSByID(0).objs[0].partial {
		t.Fatalf("PartialFills=%d partial=%v, want one fill and a whole image",
			st.PartialFills, r.DSByID(0).objs[0].partial)
	}
	for w, want := range map[int]uint64{3: 0xCC03, 7: base(7), 9: 0xCC09} {
		if v, err := load(r, addr, w); err != nil || v != want {
			t.Fatalf("word %d = %#x, %v; want %#x", w, v, err, want)
		}
	}
}

// fillCase is one consumer of a partial object's full image.
type fillCase struct {
	name string
	// wbBudget configures the staging budget (1 forces synchronous
	// write-backs).
	wbBudget uint64
	// setup runs after the store-only write of word 3 (value 0xDD03).
	setup func(t *testing.T, r *Runtime, s *wvStore, addr uint64)
	// consume exercises the consumer; it returns the error it surfaced
	// (nil on success).
	consume func(r *Runtime, addr uint64) error
	// failOK reports whether the consumer swallows a failed fill (a
	// speculative read) instead of surfacing it.
	failOK bool
}

var fillCases = []fillCase{
	{
		name:    "non-extending access",
		consume: func(r *Runtime, addr uint64) error { _, err := load(r, addr, 7); return err },
	},
	{
		name: "ObjectWord",
		consume: func(r *Runtime, addr uint64) error {
			if _, ok := r.ObjectWord(r.DSByID(0), 0, 7*8); !ok {
				return errors.New("ObjectWord refused")
			}
			return nil
		},
		failOK: true,
	},
	{
		name:     "sync eviction",
		wbBudget: 1,
		consume:  evictWV,
	},
	{
		name: "settleWB reissue",
		setup: func(t *testing.T, r *Runtime, s *wvStore, addr uint64) {
			s.set(func(s *wvStore) { s.rangeFails = 1 })
			if err := touchFresh(r, addr); err != nil {
				t.Fatal(err)
			}
		},
		consume: func(r *Runtime, addr uint64) error { return r.DrainWriteBacks() },
	},
	{
		name: "recovery drain",
		consume: func(r *Runtime, addr uint64) error {
			r.recoverRemote()
			if r.DSByID(0).objs[0].dirty {
				return errors.New("recoverRemote left the object dirty")
			}
			return nil
		},
		failOK: true,
	},
}

// TestWriteValidateFillConsumers drives every consumer of a partial
// object's full image twice: with the far tier healthy the fill is
// counted as a remote fetch and the bytes are exact; with reads failing
// the consumer surfaces a *FillError (or, for the speculative and drain
// paths, gives up quietly) and the written bytes survive for a later,
// successful attempt.
func TestWriteValidateFillConsumers(t *testing.T) {
	for _, tc := range fillCases {
		for _, fail := range []bool{false, true} {
			name := tc.name
			if fail {
				name += "/read fails"
			}
			t.Run(name, func(t *testing.T) {
				store := newWVStore()
				r, addr := wvRuntime(t, store, tc.wbBudget)
				storeOnly(t, r, addr, 3, 0xDD03)
				if tc.setup != nil {
					tc.setup(t, r, store, addr)
				}
				if fail {
					store.set(func(s *wvStore) { s.readErr = errInjected })
				}
				before := r.Stats()
				err := tc.consume(r, addr)
				st := r.Stats()
				if fail {
					if !tc.failOK {
						var fe *FillError
						if !errors.As(err, &fe) || !errors.Is(err, errInjected) {
							t.Fatalf("failed fill surfaced %v, want a *FillError wrapping the store error", err)
						}
					}
					if st.PartialFills != before.PartialFills {
						t.Fatalf("a failed fill was counted: PartialFills %d -> %d", before.PartialFills, st.PartialFills)
					}
					store.set(func(s *wvStore) { s.readErr = nil })
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if st.PartialFills != before.PartialFills+1 || st.RemoteFetches != before.RemoteFetches+1 {
						t.Fatalf("fill not counted: PartialFills %d -> %d, RemoteFetches %d -> %d",
							before.PartialFills, st.PartialFills, before.RemoteFetches, st.RemoteFetches)
					}
				}
				// Whatever happened, the program's image is intact.
				for w, want := range map[int]uint64{3: 0xDD03, 7: base(7)} {
					if v, err := load(r, addr, w); err != nil || v != want {
						t.Fatalf("word %d = %#x, %v; want %#x", w, v, err, want)
					}
				}
				if err := evictWV(r, addr); err != nil {
					t.Fatal(err)
				}
				if got := store.word(t, 0, 3); got != 0xDD03 {
					t.Fatalf("far word 3 = %#x, want 0xdd03", got)
				}
				if got := store.word(t, 0, 7); got != base(7) {
					t.Fatalf("far word 7 = %#x, want %#x", got, base(7))
				}
			})
		}
	}
}

// TestWriteValidateStagedPartial covers a partial write-back still
// staged: a load while it is in flight reads the far tier with its
// extents overlaid (the far tier does not hold them yet), and a parked
// one turns back into a partial frame without any read.
func TestWriteValidateStagedPartial(t *testing.T) {
	t.Run("in flight", func(t *testing.T) {
		store := newWVStore()
		r, addr := wvRuntime(t, store, 0)
		hold := make(chan struct{})
		store.set(func(s *wvStore) { s.hold = hold })
		storeOnly(t, r, addr, 3, 0xEE03)
		if err := touchFresh(r, addr); err != nil {
			t.Fatal(err)
		}
		if r.StagedWriteBackEntries() != 1 || store.word(t, 0, 3) != base(3) {
			t.Fatal("the partial write-back is not in flight")
		}
		if v, err := load(r, addr, 3); err != nil || v != 0xEE03 {
			t.Fatalf("word 3 = %#x, %v; want the staged 0xee03", v, err)
		}
		if v, err := load(r, addr, 7); err != nil || v != base(7) {
			t.Fatalf("word 7 = %#x, %v; want %#x", v, err, base(7))
		}
		close(hold)
		if err := r.DrainWriteBacks(); err != nil {
			t.Fatal(err)
		}
		if got := store.word(t, 0, 3); got != 0xEE03 {
			t.Fatalf("far word 3 = %#x after the drain, want 0xee03", got)
		}
	})
	t.Run("parked", func(t *testing.T) {
		store := newWVStore()
		r, addr := wvRuntime(t, store, 0)
		storeOnly(t, r, addr, 3, 0xEE03)
		store.set(func(s *wvStore) { s.rangeFails, s.readErr = 1, errInjected })
		var fe *FillError
		if err := evictWV(r, addr); !errors.As(err, &fe) {
			t.Fatalf("drain with the far tier unreadable: %v, want a *FillError", err)
		}
		if r.StagedWriteBackEntries() != 1 {
			t.Fatal("the failed partial write-back did not park")
		}
		// A store-only write re-localizes it as a partial frame: no read.
		reads := store.readCount()
		storeOnly(t, r, addr, 4, 0xEE04)
		if store.readCount() != reads || !r.DSByID(0).objs[0].partial || r.StagedWriteBackEntries() != 0 {
			t.Fatal("the parked partial entry did not turn back into a partial frame without a read")
		}
		store.set(func(s *wvStore) { s.readErr = nil })
		if err := evictWV(r, addr); err != nil {
			t.Fatal(err)
		}
		for w, want := range map[int]uint64{3: 0xEE03, 4: 0xEE04, 5: base(5)} {
			if got := store.word(t, 0, w); got != want {
				t.Fatalf("far word %d = %#x, want %#x", w, got, want)
			}
		}
	})
	t.Run("parked, drained", func(t *testing.T) {
		store := newWVStore()
		r, addr := wvRuntime(t, store, 0)
		storeOnly(t, r, addr, 3, 0xEE03)
		store.set(func(s *wvStore) { s.rangeFails, s.readErr = 1, errInjected })
		evictWV(r, addr)
		store.set(func(s *wvStore) { s.readErr = nil })
		before := r.Stats()
		if r.drainParkedWB() {
			t.Fatal("the parked entry stayed parked with the far tier healthy")
		}
		if st := r.Stats(); st.PartialFills != before.PartialFills+1 {
			t.Fatalf("drain completed the entry without a counted fill (PartialFills %d -> %d)",
				before.PartialFills, st.PartialFills)
		}
		if got := store.word(t, 0, 3); got != 0xEE03 {
			t.Fatalf("far word 3 = %#x, want 0xee03", got)
		}
		if got := store.word(t, 0, 8); got != base(8) {
			t.Fatalf("far word 8 = %#x, want %#x", got, base(8))
		}
	})
}

// TestWriteValidateOnlyOnRangeStores: a store without the range verb
// (here the in-process MapStore) fetches on every miss.
func TestWriteValidateOnlyOnRangeStores(t *testing.T) {
	r, addr := wvRuntime(t, NewMapStore(), 0)
	storeOnly(t, r, addr, 3, 1)
	if st := r.Stats(); st.WriteValidates != 0 || r.DSByID(0).objs[0].partial {
		t.Fatalf("MapStore runtime write-validated (%d)", st.WriteValidates)
	}
}

// TestWriteValidateMetrics: both counters publish, with help and unit.
func TestWriteValidateMetrics(t *testing.T) {
	r, addr := wvRuntime(t, newWVStore(), 0)
	storeOnly(t, r, addr, 3, 1)
	if _, err := load(r, addr, 7); err != nil {
		t.Fatal(err)
	}
	snap := r.ObsSnapshot()
	for name, want := range map[string]uint64{MetricWriteValidates: 1, MetricPartialFills: 1} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
		if doc := snap.Docs[name]; doc.Unit == "" || doc.Help == "" {
			t.Errorf("%s has no unit or help: %+v", name, doc)
		}
	}
}
