// Cluster: the runtime against a REAL remote memory node over TCP — the
// paper's two-machine setup on loopback. If -server is given, the
// example connects to a running cardsd; otherwise it starts an
// in-process server so the example is self-contained. Either way the
// far tier is reached through the wire protocol: evictions ride
// WRITEBATCH-C frames, misses READBATCH-C frames.
package main

import (
	"flag"
	"fmt"
	"log"

	"cards"
	"cards/internal/remote"
)

func main() {
	server := flag.String("server", "", "cardsd address (empty: start in-process)")
	flag.Parse()

	addr := *server
	if addr == "" {
		srv := remote.NewServer()
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addr = a
		fmt.Printf("started in-process far-memory node on %s\n", addr)
		defer func() {
			r, w := srv.Counts()
			fmt.Printf("server served %d reads, %d writes; %d objects resident\n",
				r, w, srv.Store.Len())
		}()
	}

	rt, err := cards.New(cards.Config{
		RemotableMemory: 32 << 10, // tiny cache: force wire traffic
		RemoteAddr:      addr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	const n = 32 * 1024
	a, err := cards.NewArray[int64](rt, "ledger", n, cards.Remotable)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.Set(i, int64(i)*3); err != nil {
			log.Fatal(err)
		}
	}
	// Read everything back — most of it now lives on the server.
	var sum int64
	for i := 0; i < n; i++ {
		v, err := a.Get(i)
		if err != nil {
			log.Fatal(err)
		}
		sum += v
	}
	want := int64(3) * n * (n - 1) / 2
	if sum != want {
		log.Fatalf("data corrupted over the wire: sum %d, want %d", sum, want)
	}

	st := rt.Stats()
	as := a.Stats()
	fmt.Printf("verified %d elements through the far tier (sum %d)\n", n, sum)
	fmt.Printf("misses=%d evictions=%d prefetch hits=%d, %.4f virtual seconds\n",
		as.Misses, st.Evictions, as.PrefetchHits, st.VirtualSeconds)
}
