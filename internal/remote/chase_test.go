package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// chainStore builds a 4-node linked list in ds1: 64-byte objects with
// the successor's tagged address at offset 8, terminated by an untagged
// sentinel word. Returns the store and the per-object payload bytes.
func chainStore() (*ObjectStore, [][]byte) {
	store := NewObjectStore()
	const objSize = 64
	order := []uint32{0, 2, 1, 3} // traversal order != allocation order
	objs := make([][]byte, 4)
	for pos, idx := range order {
		b := make([]byte, objSize)
		for i := range b {
			b[i] = byte(0x40 + int(idx)*7 + i)
		}
		var next uint64 = 0xDEAD_BEEF // terminal sentinel, untagged
		if pos+1 < len(order) {
			next = 1<<63 | uint64(1)<<48 | uint64(order[pos+1])*objSize
		}
		binary.LittleEndian.PutUint64(b[8:], next)
		store.Write(1, idx, b)
		objs[idx] = b
	}
	return store, objs
}

// TestChaseCyclicChainBounded pins the server's walk bound: an
// unterminated (cyclic) chain must be cut off after exactly the hop
// budget — the server never loops, whatever the chain shape.
func TestChaseCyclicChainBounded(t *testing.T) {
	testutil.NoGoroutineLeaks(t)

	srv := NewServer()
	// Two 64-byte nodes pointing at each other: 0 -> 1 -> 0 -> ...
	for idx := uint32(0); idx < 2; idx++ {
		b := make([]byte, 64)
		binary.LittleEndian.PutUint64(b[8:], 1<<63|uint64(1)<<48|uint64(1-idx)*64)
		srv.Store.Write(1, idx, b)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialPipelined(addr, PipelineOpts{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const budget = 63
	res, err := c.Chase(rdma.ChaseReq{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: budget})
	if err != nil {
		t.Fatalf("chase over a cycle: %v", err)
	}
	if res.Status != rdma.ChaseHops || len(res.Hops) != budget {
		t.Fatalf("cycle walk: status %d hops %d, want ChaseHops/%d", res.Status, len(res.Hops), budget)
	}
	for i, h := range res.Hops {
		if h.Idx != uint32(i%2) {
			t.Fatalf("hop %d visited node %d, want %d", i, h.Idx, i%2)
		}
	}
	// Budget odd: the resume address points back at node 1.
	if !rdma.ChaseAddrTagged(res.Final) || rdma.ChaseAddrOff(res.Final)/64 != 1 {
		t.Fatalf("resume address %#x does not point at node 1", res.Final)
	}
}

// TestChaseFieldMaskFilters pins the wire mask semantics end to end:
// cleared words come back zeroed, kept words intact, and a masked
// next-pointer field still steers the server's walk (the successor word
// is read before the filter applies).
func TestChaseFieldMaskFilters(t *testing.T) {
	testutil.NoGoroutineLeaks(t)

	store, objs := chainStore()
	srv := NewServer()
	srv.Store = store
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialPipelined(addr, PipelineOpts{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Keep only word 0; word 1 holds the next pointer and is filtered —
	// the walk must still follow the whole chain.
	res, err := c.Chase(rdma.ChaseReq{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 8, Mask: 1})
	if err != nil {
		t.Fatalf("masked chase: %v", err)
	}
	if res.Status != rdma.ChaseDone || len(res.Hops) != 4 {
		t.Fatalf("masked chase: status %d hops %d, want ChaseDone/4", res.Status, len(res.Hops))
	}
	for i, h := range res.Hops {
		want := objs[h.Idx]
		if !bytes.Equal(h.Data[:8], want[:8]) {
			t.Fatalf("hop %d kept word mangled", i)
		}
		for j := 8; j < 64; j++ {
			if h.Data[j] != 0 {
				t.Fatalf("hop %d filtered byte %d = %#x, want 0", i, j, h.Data[j])
			}
		}
	}
}

// TestChaseReplayHalvesHopBudget pins the replay bound for chases: a
// program whose connection dies before the reply is replayed with half
// its hop budget, so a reply too long for a faulty link shrinks until it
// fits instead of being replayed whole forever. The shortened walk ends
// in ChaseHops with the resume address, like any budget-limited one.
func TestChaseReplayHalvesHopBudget(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	store, objs := chainStore()
	srv := NewServer()
	srv.Store = store
	defer srv.Close()

	cli, hangup := net.Pipe()
	go func() {
		// Answer the handshake, swallow the first chase, hang up.
		if stubHandshake(hangup) == nil {
			rdma.ReadFrameCRC(hangup)
		}
		hangup.Close()
	}()
	c, err := NewPipelined(cli, PipelineOpts{
		Timeout:  time.Second,
		RetryMax: 3,
		Redial: func() (io.ReadWriteCloser, error) {
			a, b := net.Pipe()
			go srv.ServeConn(b)
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Chase(rdma.ChaseReq{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 4})
	if err != nil {
		t.Fatalf("replayed chase: %v", err)
	}
	if res.Status != rdma.ChaseHops || len(res.Hops) != 2 {
		t.Fatalf("replayed chase: status %d hops %d, want ChaseHops/2 (budget 4 halved)", res.Status, len(res.Hops))
	}
	for i, want := range []uint32{0, 2} { // traversal order 0 -> 2 -> 1 -> 3
		if h := res.Hops[i]; h.Idx != want || !bytes.Equal(h.Data, objs[want]) {
			t.Fatalf("hop %d = node %d, want node %d intact", i, h.Idx, want)
		}
	}
	if !rdma.ChaseAddrTagged(res.Final) || rdma.ChaseAddrOff(res.Final)/64 != 1 {
		t.Fatalf("resume address %#x does not point at node 1", res.Final)
	}
}
