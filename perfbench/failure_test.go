package main

import (
	"errors"
	"testing"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/ir"
)

func compileTest(t *testing.T, m *ir.Module) *core.Compiled {
	t.Helper()
	c, err := core.Compile(m, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// corruptStore flips the bytes of one object every time it is read
// back: the far tier returning silently wrong data.
type corruptStore struct {
	farmem.Store
	target [2]int
	hit    int
}

func (s *corruptStore) ReadObj(ds, idx int, dst []byte) error {
	if err := s.Store.ReadObj(ds, idx, dst); err != nil {
		return err
	}
	if s.target == [2]int{-1, -1} {
		s.target = [2]int{ds, idx}
	}
	if s.target == [2]int{ds, idx} {
		s.hit++
		for i := range dst {
			dst[i] ^= 0x5a
		}
	}
	return nil
}

// refuseStore fails every operation after the first n.
type refuseStore struct {
	farmem.Store
	n int
}

var errRefused = errors.New("refused")

func (s *refuseStore) ReadObj(ds, idx int, dst []byte) error {
	if s.n--; s.n < 0 {
		return errRefused
	}
	return s.Store.ReadObj(ds, idx, dst)
}

func (s *refuseStore) WriteObj(ds, idx int, src []byte) error {
	if s.n--; s.n < 0 {
		return errRefused
	}
	return s.Store.WriteObj(ds, idx, src)
}

// TestFailureAccounting proves that a far tier returning wrong bytes or
// refusing operations is reported as a failed, incorrect run with a
// nonzero failed share, not as a fast one.
func TestFailureAccounting(t *testing.T) {
	w, err := lookup("analytics")
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.build(7)
	if err != nil {
		t.Fatal(err)
	}
	prog := compileTest(t, m)
	sum, _, err := oracle(prog, w.budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := execute(prog, farmem.NewMapStore(), w.budget)
	ok := []execResult{good, good, good}
	if r := untracedReport(w, ok, sum, 0.1, 10, w.want); !r.Correct || r.Failed != 0 || r.Metrics["ok_frac"].Value != 1 {
		t.Fatalf("clean executions judged failed: %+v %v", r, r.problems)
	}

	corrupt := &corruptStore{Store: farmem.NewMapStore(), target: [2]int{-1, -1}}
	refuse := &refuseStore{Store: farmem.NewMapStore(), n: 100}
	for _, tc := range []struct {
		name  string
		store farmem.Store
	}{{"corrupt", corrupt}, {"refuse", refuse}} {
		bad := execute(prog, tc.store, w.budget)
		r := untracedReport(w, []execResult{good, good, bad}, sum, 0.1, 10, w.want)
		if r.Correct {
			t.Errorf("%s: run judged correct (checksum %#x, oracle %#x, err %v)", tc.name, bad.checksum, sum, bad.err)
		}
		if r.Failed == 0 || r.Metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: failed=%d ok_frac=%v, want failures counted", tc.name, r.Failed, r.Metrics["ok_frac"].Value)
		}
		if a := account([]execResult{bad}, sum); a.failedFrac() <= 0 {
			t.Errorf("%s: failed_frac %v, want > 0", tc.name, a.failedFrac())
		}
	}
	if corrupt.hit == 0 {
		t.Error("the corrupting store never served the target object")
	}
}
