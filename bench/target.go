package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/store"
)

// bootTimeout bounds spawn → healthy; the 20 000-user instance boots
// in about two seconds on the reference sandbox.
const bootTimeout = 120 * time.Second

// target is the system under test behind a loopback HTTP address:
// revmaxd as a child process for the end-to-end numbers, or the same
// stack hosted in this process for the traced run and the smoke test.
type target interface {
	// start boots the target on its data dir (recovering when the dir
	// holds state) and returns spawn → first 200 from /healthz.
	start() (time.Duration, error)
	addr() string
	// kill is SIGKILL (or its in-process equivalent); it returns once
	// the target is gone.
	kill() error
	// stop is the graceful shutdown; it returns once the target is gone.
	stop() error
	// dataDir is where a durable workload's daemon keeps its state.
	dataDir() string
	// wipe removes the data dir, so that the next start is a fresh boot.
	wipe() error
	// usage is the target's CPU time so far, its resident set and the
	// peak of that.
	usage() (cpu time.Duration, rssMB, peakMB float64, err error)
}

// awaitHealthy polls /healthz every 2 ms until it answers 200, gone
// fires, or the boot times out.
func awaitHealthy(addr string, gone <-chan struct{}) error {
	c := newConn(addr)
	defer c.close()
	deadline := time.Now().Add(bootTimeout)
	for time.Now().Before(deadline) {
		if status, err := c.do("GET", "/healthz", nil, 0); err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-gone:
			return errors.New("target exited before it was healthy")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("target not healthy on %s after %v", addr, bootTimeout)
}

// freeLoopbackAddr asks the kernel for an unused port. The port is
// released before the daemon binds it; nothing else on the sandbox
// competes for it in between.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// procUsage reads utime+stime, VmRSS and VmHWM of a process from /proc.
func procUsage(pid string) (cpu time.Duration, rssMB, peakMB float64, err error) {
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in USER_HZ (100 on Linux) ticks.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, 0, err
	}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, 0, err
	}
	kb := func(field string) float64 {
		_, rest, _ := strings.Cut(string(status), field)
		v, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		n, _ := strconv.ParseFloat(v, 64)
		return n
	}
	return time.Duration(utime+stime) * (time.Second / 100), kb("VmRSS:") / 1024, kb("VmHWM:") / 1024, nil
}

// walBytes sums the write-ahead-log segments under dir.
func walBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if name := info.Name(); !info.IsDir() && strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// procTarget runs the revmaxd binary as a child process.
type procTarget struct {
	w       workload
	users   int
	seed    uint64
	bin     string // the built revmaxd
	dir     string // the run's temp dir: logs and the data dir
	address string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd.Wait returned; exitErr is set before
	exitErr error
	logs    *os.File
}

func (p *procTarget) dataDir() string { return filepath.Join(p.dir, "data") }
func (p *procTarget) addr() string    { return p.address }

func (p *procTarget) start() (time.Duration, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return 0, err
	}
	if p.logs == nil {
		p.logs, err = os.Create(filepath.Join(p.dir, "revmaxd.log"))
		if err != nil {
			return 0, err
		}
	}
	p.address = addr
	p.cmd = exec.Command(p.bin, p.w.daemonFlags(p.users, p.seed, addr, p.dataDir())...)
	p.cmd.Stdout, p.cmd.Stderr = p.logs, p.logs
	begin := time.Now()
	if err := p.cmd.Start(); err != nil {
		return 0, err
	}
	p.exited = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		p.exitErr = cmd.Wait()
		close(done)
	}(p.cmd, p.exited)
	if err := awaitHealthy(addr, p.exited); err != nil {
		p.kill()
		return 0, fmt.Errorf("%w\n%s", err, p.logTail())
	}
	return time.Since(begin), nil
}

func (p *procTarget) logTail() string {
	b, _ := os.ReadFile(filepath.Join(p.dir, "revmaxd.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (p *procTarget) kill() error {
	if p.cmd == nil {
		return nil
	}
	_ = p.cmd.Process.Kill() // already gone is fine
	<-p.exited
	p.cmd = nil
	return nil
}

func (p *procTarget) stop() error {
	if p.cmd == nil {
		return nil
	}
	defer func() {
		p.cmd = nil
		p.logs.Close()
	}()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		if p.exitErr != nil {
			return fmt.Errorf("revmaxd shut down with %v\n%s", p.exitErr, p.logTail())
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return errors.New("revmaxd did not exit within 60 s of SIGTERM")
	}
}

func (p *procTarget) wipe() error { return os.RemoveAll(p.dataDir()) }

func (p *procTarget) usage() (time.Duration, float64, float64, error) {
	return procUsage(strconv.Itoa(p.cmd.Process.Pid))
}

// serving is what the in-process target needs of an engine or a
// cluster to take it down, as in cmd/revmaxd.
type serving interface {
	Sync() error
	Err() error
	Close()
	Kill()
}

// inprocTarget hosts the same stack in this process: dataset.Build →
// serve.Open / cluster.Open → http.Server on loopback, the way
// cmd/revmaxd wires it. wrap, when set, wraps the API handler (the
// traced run's span around serve.Handler / cluster.Handler).
type inprocTarget struct {
	w     workload
	users int
	seed  uint64
	dir   string // the data dir
	wrap  func(http.Handler) http.Handler

	in         *model.Instance // nil after a recovery boot
	eng        *serve.Engine   // single-engine workloads
	cl         *cluster.Cluster
	svc        serving // whichever of the two is up
	srv        *http.Server
	served     chan struct{}
	address    string
	stopTicker func()
	buildTime  time.Duration // dataset.Build share of the last fresh start
}

func (t *inprocTarget) addr() string    { return t.address }
func (t *inprocTarget) dataDir() string { return t.dir }

func buildInstance(users int, seed uint64) (*model.Instance, error) {
	ds, err := dataset.Build(datasetName, dataset.Config{Seed: seed, Scale: 0.01, Users: users})
	if err != nil {
		return nil, err
	}
	return ds.Instance, nil
}

func (t *inprocTarget) start() (time.Duration, error) {
	begin := time.Now()
	stateDir := t.dir
	if t.w.shards >= 2 {
		stateDir = filepath.Join(t.dir, "coord")
	}
	t.in = nil
	if !t.w.durable || !store.DirHasState(stateDir) {
		in, err := buildInstance(t.users, t.seed)
		if err != nil {
			return 0, err
		}
		t.in, t.buildTime = in, time.Since(begin)
	}
	var handler http.Handler
	if t.w.shards >= 2 {
		cl, err := cluster.Open(t.in, t.w.clusterConfig(t.seed, t.dir))
		if err != nil {
			return 0, err
		}
		t.cl, t.svc, handler = cl, cl, cluster.Handler(cl)
		t.stopTicker = startFlushTicker(cl, flushInterval)
	} else {
		eng, err := serve.Open(t.in, t.w.engineConfig(t.seed, t.dir))
		if err != nil {
			return 0, err
		}
		t.eng, t.svc, handler = eng, eng, serve.Handler(eng)
	}
	if t.wrap != nil {
		handler = t.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	t.address = ln.Addr().String()
	t.srv = &http.Server{Handler: handler, ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}
	t.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		_ = srv.Serve(ln) // always ErrServerClosed, from halt
		close(done)
	}(t.srv, t.served)
	if err := awaitHealthy(t.address, nil); err != nil {
		return 0, err
	}
	return time.Since(begin), nil
}

// startFlushTicker is cmd/revmaxd's -flush-interval driver.
func startFlushTicker(cl *cluster.Cluster, every time.Duration) func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cl.Flush()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// halt closes the listener and every connection and retires the ticker.
func (t *inprocTarget) halt() {
	if t.srv == nil {
		return
	}
	_ = t.srv.Close()
	<-t.served
	t.srv = nil
	if t.stopTicker != nil {
		t.stopTicker()
		t.stopTicker = nil
	}
}

func (t *inprocTarget) kill() error {
	t.halt()
	if t.svc != nil {
		t.svc.Kill()
		t.eng, t.cl, t.svc = nil, nil, nil
	}
	return nil
}

func (t *inprocTarget) stop() error {
	t.halt()
	if t.svc == nil {
		return nil
	}
	err := t.svc.Sync()
	t.svc.Close()
	err = errors.Join(err, t.svc.Err())
	t.eng, t.cl, t.svc = nil, nil, nil
	return err
}

func (t *inprocTarget) wipe() error { return os.RemoveAll(t.dir) }

func (t *inprocTarget) usage() (time.Duration, float64, float64, error) { return procUsage("self") }
