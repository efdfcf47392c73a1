package bench

import (
	"fmt"
	"sync"
	"time"

	"cards/internal/faultnet"
	"cards/internal/remote"
)

// pipelineObjSize is the object granularity of the sweep: the runtime's
// default 4 KiB page-sized objects.
const pipelineObjSize = 4096

// pipelineDepths are the in-flight windows the sweep measures. Depth 1
// isolates the doorbell/demux overhead of the asynchronous issue path
// against the serial baseline's blocking calls on the same window.
var pipelineDepths = []int{1, 2, 4, 8, 16, 32}

// Pipeline measures remote read throughput of serial access — one
// blocking read at a time on a Window: 1 client — vs asynchronous
// pipelined issue across window depths, over a real TCP loopback
// connection to an in-process server. Unlike the other experiments this
// one runs on wall-clock time, not the virtual cycle clock: it measures
// the real data path the simulated one models.
func Pipeline(cfg Config) (*Table, error) {
	reads := int(cfg.PipelineReads)
	if reads <= 0 {
		reads = 1024
	}
	return pipelineSweep(reads, pipelineObjSize, pipelineDepths, cfg.Chaos)
}

// PipelineSweep runs the depth sweep: `reads` remote reads of
// `objSize`-byte objects, once serially (blocking calls, Window 1) and
// once pipelined per depth. Rows report throughput and speedup over the
// serial baseline.
func PipelineSweep(reads, objSize int, depths []int) (*Table, error) {
	return pipelineSweep(reads, objSize, depths, "")
}

func pipelineSweep(reads, objSize int, depths []int, chaos string) (*Table, error) {
	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pipeline: listen: %w", err)
	}
	defer srv.Close()

	// Under chaos, clients reach the server through the fault proxy and
	// dial with deadlines + retry/reconnect, so the sweep measures the
	// data path's throughput while it survives the schedule.
	var proxy *faultnet.Proxy
	if chaos != "" {
		fcfg, err := faultnet.ParseSpec(chaos)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		proxy, err = faultnet.NewProxy("127.0.0.1:0", addr, fcfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: proxy: %w", err)
		}
		defer proxy.Close()
		addr = proxy.Addr()
	}

	// Seed the far tier so reads return real payloads.
	nObjs := seedObjects(srv, objSize)

	serial, err := runSerial(addr, reads, objSize, nObjs, chaos != "")
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "pipeline",
		Title:  fmt.Sprintf("Remote read throughput, %d reads x %dB over TCP loopback", reads, objSize),
		Header: []string{"client", "depth", "reads/s", "MB/s", "vs serial"},
	}
	row := func(name string, depth string, d time.Duration) {
		rps := float64(reads) / d.Seconds()
		mbs := rps * float64(objSize) / 1e6
		t.Rows = append(t.Rows, []string{
			name, depth,
			fmt.Sprintf("%.0f", rps),
			fmt.Sprintf("%.1f", mbs),
			ratio(serial.Seconds() / d.Seconds()),
		})
	}
	row("serial", "-", serial)

	for _, depth := range depths {
		d, err := runPipelined(addr, reads, objSize, nObjs, depth, chaos != "")
		if err != nil {
			return nil, err
		}
		row("pipelined", fmt.Sprintf("%d", depth), d)
	}
	t.Notes = append(t.Notes,
		"wall-clock over real sockets (not the virtual cycle clock); depth = bounded in-flight window",
		"serial = blocking ReadObj calls on a Window: 1 client, one round trip at a time",
		"pipelined reads coalesce into READBATCH-C frames flushed through one buffered write (doorbell)")
	if proxy != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"chaos %q survived: %d forced disconnects, %d corrupted chunks, %d stalls across %d connections",
			chaos, proxy.Cuts(), proxy.Corruptions(), proxy.Stalls(), proxy.Conns()))
	}
	return t, nil
}

// pipelineOpts is the client configuration of one sweep row. Chaos-mode
// clients dial with deadlines and a retry budget: tight backoff so
// throughput numbers stay meaningful, a deep enough reconnect budget to
// outlast any reasonable cut schedule.
//
// Compression is pinned off: the sweep isolates window-depth scaling,
// and the seeded ramp objects are maximally compressible — adaptive LZ
// would turn the measurement into a CPU benchmark of the compressor.
// The wire ladder (bench -exp wire) measures that trade-off explicitly.
func pipelineOpts(depth int, chaos bool) remote.PipelineOpts {
	opts := remote.PipelineOpts{Window: depth, Compression: "off"}
	if chaos {
		opts.Timeout = 2 * time.Second
		opts.RetryMax = 64
		opts.RetryBase = time.Millisecond
		opts.RetryCap = 20 * time.Millisecond
		// Cap batch coalescing: a batch reply carrying the whole window
		// (up to 128 KiB at depth 32) in one frame can exceed every
		// possible cut budget of the schedule and replay forever. Four
		// 4 KiB objects per frame fit any sane cut spec's minimum draw.
		opts.MaxBatch = 4
	}
	return opts
}

// seedObjects writes a deterministic working set directly into the
// server's store and returns its object count.
func seedObjects(srv *remote.Server, objSize int) int {
	const nObjs = 64
	buf := make([]byte, objSize)
	for i := 0; i < nObjs; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		srv.Store.Write(0, uint32(i), buf)
	}
	return nObjs
}

func runSerial(addr string, reads, objSize, nObjs int, chaos bool) (time.Duration, error) {
	c, err := remote.DialPipelined(addr, pipelineOpts(1, chaos))
	if err != nil {
		return 0, fmt.Errorf("pipeline: serial dial: %w", err)
	}
	defer c.Close()
	dst := make([]byte, objSize)
	start := time.Now()
	for i := 0; i < reads; i++ {
		if err := c.ReadObj(0, i%nObjs, dst); err != nil {
			return 0, fmt.Errorf("pipeline: serial read: %w", err)
		}
	}
	return time.Since(start), nil
}

func runPipelined(addr string, reads, objSize, nObjs, depth int, chaos bool) (time.Duration, error) {
	c, err := remote.DialPipelined(addr, pipelineOpts(depth, chaos))
	if err != nil {
		return 0, fmt.Errorf("pipeline: dial depth %d: %w", depth, err)
	}
	defer c.Close()

	// Issue every read asynchronously; per-read destination buffers so
	// completions never overwrite each other.
	dsts := make([][]byte, depth*2)
	for i := range dsts {
		dsts[i] = make([]byte, objSize)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	wg.Add(reads)
	start := time.Now()
	for i := 0; i < reads; i++ {
		c.IssueRead(0, i%nObjs, dsts[i%len(dsts)], func(err error) {
			if err != nil {
				mu.Lock()
				if firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait()
	d := time.Since(start)
	if firstEr != nil {
		return 0, fmt.Errorf("pipeline: depth %d read: %w", depth, firstEr)
	}
	return d, nil
}
