package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished CLI invocation.
type procResult struct {
	wall time.Duration
	usage
	stdout []byte
}

// usage is a finished process's peak resident set and its CPU time (user
// + system).
type usage struct {
	rssMB float64
	cpu   time.Duration
}

// cpuTime reads a finished process's CPU time from its rusage. The rusage
// peak RSS (ru_maxrss) is not used: os/exec starts children with vfork,
// and at exec the kernel carries the shared address space's high-water
// mark — this benchmark's own peak — into the child's figure.
func cpuTime(ps *os.ProcessState) time.Duration {
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}

// vmHWM reads a live process's own peak resident set (VmHWM) in MB.
func vmHWM(pid int) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// pollPeakRSS samples a running process's VmHWM every 2 ms until done is
// closed and sends the largest value seen. VmHWM never decreases, so only
// growth in the last interval before exit is missed.
func pollPeakRSS(pid int, done <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			if v, ok := vmHWM(pid); ok {
				peak = math.Max(peak, v)
			}
			select {
			case <-done:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// runCLI runs one binary to completion in a fresh process, timing it from
// launch to exit, sampling its peak RSS and reading its CPU time.
func runCLI(ctx context.Context, bin string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	done := make(chan struct{})
	peak := pollPeakRSS(cmd.Process.Pid, done)
	err := cmd.Wait()
	wall := time.Since(start)
	close(done)
	rss := <-peak
	if err != nil {
		return procResult{}, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return procResult{wall: wall, usage: usage{rssMB: rss, cpu: cpuTime(cmd.ProcessState)}, stdout: stdout.Bytes()}, nil
}

// daemon is a running swapd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startSwapd launches swapd with default flags on a loopback port the
// kernel picks, and returns once /healthz answers 200, with the time that
// took from launch (the set-up time).
func startSwapd(ctx context.Context, e *env, tag string) (*daemon, time.Duration, error) {
	logf, err := os.Create(filepath.Join(e.work, "swapd-"+tag+".log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(e.bin, "swapd"), "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting swapd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status is read through ProcessState in stop
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("swapd did not become healthy within 30s")
		}
		select {
		case <-d.done:
			d.log.Close()
			return nil, 0, fmt.Errorf("swapd exited during start-up: %s", d.tail())
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		default:
		}
		if d.addr == "" {
			if m := listenRE.FindSubmatch(d.readLog()); m != nil {
				d.addr = string(m[1])
			}
		}
		if d.addr != "" {
			resp, err := hc.Get("http://" + d.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (d *daemon) readLog() []byte {
	data, _ := os.ReadFile(d.log.Name()) // a missing log reads as empty; start-up keeps polling
	return data
}

func (d *daemon) tail() string {
	data := d.readLog()
	if len(data) > 400 {
		data = data[len(data)-400:]
	}
	return string(bytes.TrimSpace(data))
}

// stop drains swapd with SIGTERM (its graceful shutdown), waits for it to
// exit, and returns its usage: the peak RSS is read just before the drain.
func (d *daemon) stop() usage {
	var rss float64
	select {
	case <-d.done:
	default:
		rss, _ = vmHWM(d.cmd.Process.Pid)
		d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
		select {
		case <-d.done:
		case <-time.After(40 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
	return usage{rssMB: rss, cpu: cpuTime(d.cmd.ProcessState)}
}

// cliSetup measures a CLI's set-up time: the wall time of its cheapest
// complete invocation (launch, runtime and package initialisation, flag
// parsing, exit), median of several fresh processes.
func cliSetup(ctx context.Context, e *env, bin string, args ...string) ([]float64, error) {
	n := 25
	if e.mini {
		n = 1
	}
	var out []float64
	for i := 0; i < n; i++ {
		res, err := runCLI(ctx, bin, args...)
		if err != nil {
			return nil, err
		}
		out = append(out, res.wall.Seconds())
	}
	return out, nil
}

// launchSwapd measures swapd's set-up time over several launches (median)
// and keeps the last instance running for the workload.
func launchSwapd(ctx context.Context, e *env) (*daemon, []float64, error) {
	n := 15
	if e.mini {
		n = 1
	}
	var setups []float64
	for i := 0; ; i++ {
		d, setup, err := startSwapd(ctx, e, fmt.Sprint(i))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		if i == n-1 {
			return d, setups, nil
		}
		d.stop()
	}
}
