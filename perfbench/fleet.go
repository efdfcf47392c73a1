package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/remote"
	"cards/internal/replica"
)

// Far-tier settings a user gets from cards.Config{} (cards.New): a
// resilient pipelined connection per backend with a 2s round-trip
// timeout and 6 retries, breakers at 8 consecutive failures, adaptive
// compression, dirty-range write-back off.
const (
	remoteTimeout    = 2 * time.Second
	remoteRetries    = 6
	breakerThreshold = 8
)

// server is one cardsd child process.
type server struct {
	cmd         *exec.Cmd
	addr        string // data listener
	metricsAddr string // /metrics and /debug/pprof
	stderrDone  chan struct{}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// startServer launches cardsd and returns once its data listener is
// up. chaos, when non-empty, is passed as -chaos (link shaping).
func startServer(bin, chaos string) (*server, error) {
	mport, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", "127.0.0.1:0", "-metrics-addr", mport, "-drain-timeout", "1s"}
	if chaos != "" {
		args = append(args, "-chaos", chaos)
	}
	cmd := exec.Command(bin, args...)
	// The kernel kills the child if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, metricsAddr: mport, stderrDone: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		defer close(s.stderrDone)
		const marker = "serving far memory on "
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				found <- strings.TrimSpace(sc.Text()[i+len(marker):])
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case s.addr = <-found:
		return s, nil
	case <-s.stderrDone:
		s.stop()
		return nil, errors.New("cardsd exited before serving")
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, errors.New("cardsd did not start serving within 10s")
	}
}

// stop terminates the process and waits for it: SIGTERM (a graceful
// drain bounded by -drain-timeout), then SIGKILL after 3s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stderrDone:
	case <-time.After(3 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.stderrDone
	}
	_ = s.cmd.Wait() // exit status of a signalled child is expected
}

// freePort reserves an ephemeral loopback port for the metrics
// listener (cardsd takes its address as a flag and does not report a
// port it picked itself).
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// tier is a running far tier: the cardsd fleet, the transport clients
// dialed to it, and the store the runtime calls.
type tier struct {
	servers []*server
	clients []*remote.Resilient
	store   farmem.Store
	fleet   *replica.Store // non-nil when replicated
	http    *http.Client
}

// tierSpec describes a workload's far tier.
type tierSpec struct {
	backends int
	replicas int
	chaos    string
}

// startTier starts the fleet, dials and pings every backend, and builds
// the store as cards.New does. With rec non-nil the store (and, when
// replicated, every backend) is wrapped in a timing shim and the fleet
// start and dial are recorded as spans.
func startTier(bin string, spec tierSpec, rec *recorder) (t *tier, err error) {
	// The timeout covers CPU profiles, which last up to half a run.
	t = &tier{http: &http.Client{Timeout: 2 * time.Minute}}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()
	done := rec.region("fleet")
	for i := 0; i < spec.backends; i++ {
		s, err := startServer(bin, spec.chaos)
		if err != nil {
			done()
			return t, err
		}
		t.servers = append(t.servers, s)
	}
	done()

	done = rec.region("dial")
	defer done()
	var reg *obs.Registry
	if spec.backends > 1 {
		reg = obs.NewRegistry()
	}
	var backends []farmem.Store
	for i, s := range t.servers {
		cfg := remote.DialConfig{Timeout: remoteTimeout, RetryMax: remoteRetries, Obs: reg}
		if spec.backends > 1 {
			cfg.Shard = strconv.Itoa(i)
		}
		c, err := remote.DialResilient(s.addr, cfg)
		if err != nil {
			return t, fmt.Errorf("dialing %s: %w", s.addr, err)
		}
		t.clients = append(t.clients, c)
		if err := c.Ping(); err != nil {
			return t, fmt.Errorf("ping %s: %w", s.addr, err)
		}
		var b farmem.Store = c
		if rec != nil {
			if b, err = wrapBackend(rec, c); err != nil {
				return t, err
			}
		}
		backends = append(backends, b)
	}
	if spec.replicas > 1 {
		t.fleet, err = replica.New(backends, replica.Options{
			Replicas:         spec.replicas,
			WriteQuorum:      1,
			BreakerThreshold: breakerThreshold,
			Obs:              reg,
		})
		if err != nil {
			return t, err
		}
		t.store = t.fleet
	} else {
		t.store = t.clients[0]
	}
	if rec != nil {
		if t.store, err = wrapStore(rec, t.store); err != nil {
			return t, err
		}
	}
	return t, nil
}

// close releases the connections and stops the fleet.
func (t *tier) close() {
	if t.fleet != nil {
		_ = t.fleet.Close() // teardown; the run's results are already taken
	}
	for _, c := range t.clients {
		_ = c.Close()
	}
	for _, s := range t.servers {
		s.stop()
	}
}

// scrapeAll returns the fleet's summed /metrics exposition.
func (t *tier) scrapeAll() (exposition, error) {
	sum := exposition{}
	for _, s := range t.servers {
		e, err := waitScrape(t.http, s.metricsAddr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		sum = sum.add(e)
	}
	return sum, nil
}

// procAll returns per-server /proc samples.
func (t *tier) procAll() ([]procSample, error) {
	out := make([]procSample, len(t.servers))
	for i, s := range t.servers {
		p, err := readProc(s.pid())
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// profileServer fetches a CPU profile of one cardsd over the given
// number of whole seconds (the granularity net/http/pprof accepts).
func (t *tier) profileServer(ctx context.Context, i, seconds int) (*cpuProfile, error) {
	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", t.servers[i].metricsAddr, seconds)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProfile(data)
}
