package difftest

import (
	"testing"

	"cards/internal/ir"
	"cards/internal/testutil"
	"cards/internal/workloads"
)

func buildList(n int64) func() (*ir.Module, error) {
	return func() (*ir.Module, error) {
		w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: n, Seed: 9})
		if err != nil {
			return nil, err
		}
		return w.Module, nil
	}
}

// TestOffloadExactCleanLink is the no-chaos differential: on a clean
// link the offloaded pointer chase must match the oracle and actually
// engage — programs issued, path objects staged ahead of demand, and
// derefs served from the staging area. The list is built in traversal
// order and is far longer than one hop budget, so exactness here also
// covers the continuation path (budget-bounded programs resumed from
// the ChaseHops resume address).
func TestOffloadExactCleanLink(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	_, offload := Run(t, buildList(4096), Config{})
	st := offload.Stats
	if st.ChasesIssued == 0 {
		t.Fatal("offload mode issued no chase programs: the offload path never engaged")
	}
	if st.ChaseHopsStaged == 0 {
		t.Fatal("no path objects staged: chase replies never reached the staging area")
	}
	if st.ChaseStagingHits == 0 {
		t.Fatal("no derefs served from chase staging: offload did useful no work")
	}
	t.Logf("clean link: %d programs, %d hops staged, %d staging hits, %d stale, %d fallbacks",
		st.ChasesIssued, st.ChaseHopsStaged, st.ChaseStagingHits, st.ChaseStale, st.ChaseFallbacks)
}

// TestOffloadExactUnderChaos is the headline differential: the same
// pointer chase under a seeded chaos schedule — connections cut every
// 12 KiB (often enough that chase replies die mid-flight and replay)
// and 1% of forwarded chunks corrupted — must stay bit-identical
// across all three modes, with well over a thousand injected faults
// between the two remote runs. Offloaded chases ride the idempotent
// read path, so a replayed CHASEBATCH must deliver exactly the bytes
// the per-hop replay would have.
func TestOffloadExactUnderChaos(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	// The list is sized for the fault floor: replayed chases halve their
	// hop budget, so the offload run no longer inflates its own traffic
	// with whole-reply replays, and the faults have to come from real
	// work.
	perhop, offload := Run(t, buildList(65536), Config{
		Spec:     "cut=12288,corrupt=0.01,seed=7",
		RetryMax: 8,
		Window:   8,
		MaxBatch: 2,
	})
	faults := perhop.Cuts + perhop.Corruptions + offload.Cuts + offload.Corruptions
	if faults < 1000 {
		t.Errorf("only %d injected faults across the remote runs, want >= 1000 (schedule too gentle)", faults)
	}
	if offload.Stats.ChasesIssued == 0 {
		t.Error("offload mode issued no chase programs under chaos")
	}
	t.Logf("chaos: %d faults (per-hop %d cuts/%d corruptions, offload %d cuts/%d corruptions); offload stats: %+d programs, %d staged, %d hits, %d fallbacks",
		faults, perhop.Cuts, perhop.Corruptions, offload.Cuts, offload.Corruptions,
		offload.Stats.ChasesIssued, offload.Stats.ChaseHopsStaged,
		offload.Stats.ChaseStagingHits, offload.Stats.ChaseFallbacks)
}

// TestRangeWritebackExactUnderChaos is the dirty-range differential:
// the BFS workload with compiler-aided range write-back live on the
// offloaded mode, under a cut+corruption schedule. Cuts kill range
// writes in uncertain states (issued, outcome unknown); the runtime's
// synchronous reissue replays the FULL staged image, so a double-
// applied or lost splice would surface as a checksum divergence on the
// next fetch of that object. The per-hop control hides the range
// surface and stays on full-object writes — same server code, range
// path off.
func TestRangeWritebackExactUnderChaos(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	build := func() (*ir.Module, error) {
		return workloads.BuildBFS(workloads.BFSConfig{
			Vertices: 512, Degree: 6, Trials: 2, Seed: 11}).Module, nil
	}
	perhop, offload := Run(t, build, Config{
		Spec:           "cut=32768,corrupt=0.01,seed=13",
		RetryMax:       8,
		Window:         8,
		MaxBatch:       2,
		RangeWriteback: true,
	})
	if perhop.Stats.RangeWriteBacks != 0 {
		t.Errorf("per-hop control took %d range write-backs; its store hides the range surface",
			perhop.Stats.RangeWriteBacks)
	}
	if offload.Stats.RangeWriteBacks == 0 {
		t.Error("range-writeback mode shipped no extents: the range path never engaged")
	}
	t.Logf("range chaos: %d range write-backs, %d bytes saved, %d cuts/%d corruptions",
		offload.Stats.RangeWriteBacks, offload.Stats.RangeBytesSaved,
		offload.Cuts, offload.Corruptions)
}

// TestBFSExactUnderChaos reuses the harness for the BFS e2e suite: a
// graph traversal whose adjacency structure is not a single-successor
// chain, so offload may engage only partially (or not at all) — but
// the three-way equivalence must hold regardless. This is the guard
// against the offload path perturbing workloads it cannot serve.
func TestBFSExactUnderChaos(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	build := func() (*ir.Module, error) {
		return workloads.BuildBFS(workloads.BFSConfig{
			Vertices: 512, Degree: 6, Trials: 2, Seed: 11}).Module, nil
	}
	Run(t, build, Config{
		Spec:     "cut=32768,corrupt=0.01,seed=7",
		RetryMax: 8,
		Window:   8,
		MaxBatch: 2,
	})
}
