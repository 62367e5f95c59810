package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration. On a shared machine the same map runs up
// to twice as slow for minutes at a time when neighbours are busy, far
// beyond any bound a regression gate could use. The benchmark therefore
// reports times in reference milliseconds: every raw time is scaled by
// calRef over the current cost of a fixed kernel, run in a child process
// that shares nothing with chortle — not its code, not its heap — so a
// change to chortle cannot move the yardstick. The kernel (map inserts,
// small allocations, a sort) slows down under contention the way the
// mapper does. It only runs while no map is in flight, and a sample
// counts only if the workload's processes — this one and chortled — sat
// idle while it ran, so leftover work such as a garbage collection after
// a response never slows the yardstick. Over ten 20-second runs on the
// 2-core machine the workloads were sized on, it cut the spread of
// paper_tree's median latency from 9-18% raw to 2-3%, and of the
// serving workloads' from 11-20% to 5-8%.
const (
	// calRef is the kernel's median time on the reference machine (that
	// 2-core machine on a quiet minute): times are reported as if the
	// kernel took exactly this long.
	calRef = 900 * time.Microsecond
	// calEvery spaces samples in a closed loop; at about a millisecond
	// a sample, that is about 4% of the window.
	calEvery = 25 * time.Millisecond
	// calNear is how many samples nearest in time set a moment's speed.
	calNear = 8
	// calWarm samples are discarded when the calibrator starts.
	calWarm = 5
	// A sample counts when the watched processes used less than
	// 1/calQuiet of its time; after calTries disturbed samples, a
	// millisecond apart, the last one counts anyway.
	calQuiet = 20
	calTries = 50
)

// calibrateCommand is the hidden subcommand that runs the child.
const calibrateCommand = "calibrate"

// calibrateMain is the child: for every line read it runs the kernel
// once and writes the time it took, in nanoseconds.
func calibrateMain(in io.Reader, out io.Writer) int {
	r := bufio.NewReader(in)
	w := bufio.NewWriter(out)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return 0
		}
		fmt.Fprintln(w, kernel().Nanoseconds())
		if err := w.Flush(); err != nil {
			return 1
		}
	}
}

type kernelNode struct{ v int32 }

// kernelSink keeps the kernel's result alive so the compiler cannot
// drop the work.
var kernelSink int

func kernel() time.Duration {
	const n = 10000
	t0 := time.Now()
	m := make(map[int32]int32, 256)
	nodes := make([]*kernelNode, 0, 256)
	for i := int32(0); i < n; i++ {
		k := i * 7919 % (n + n/3)
		m[k] += i
		if i%4 == 0 {
			nodes = append(nodes, &kernelNode{v: k})
		}
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].v < nodes[b].v })
	kernelSink += len(m) + int(nodes[0].v)
	return time.Since(t0)
}

// processCPU reads the CPU time all threads of a process have used,
// through the clock clock_getcpuclockid(3) names.
func processCPU(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	clock := ^uintptr(pid)<<3 | 2 // CPUCLOCK_SCHED of the whole process
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading the CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// calibrator drives the child and keeps its samples in time order. A
// nil calibrator takes no samples and reports speed 1 (raw times).
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []calSample
	// watched are the workload's processes: this one, and chortled
	// while it runs.
	watched []int
}

type calSample struct {
	at time.Time
	d  time.Duration
}

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(exe, calibrateCommand), watched: []int{os.Getpid()}}
	c.cmd.Stderr = os.Stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the calibrator: %w", err)
	}
	for i := 0; i < calWarm; i++ {
		if err := c.sample(); err != nil {
			return nil, errors.Join(err, c.stop())
		}
	}
	c.samples = c.samples[:0]
	return c, nil
}

// watch adds a workload process to the quiet check; unwatch removes it.
func (c *calibrator) watch(pid int) {
	if c != nil {
		c.watched = append(c.watched, pid)
	}
}

func (c *calibrator) unwatch(pid int) {
	if c == nil {
		return
	}
	for i, p := range c.watched {
		if p == pid {
			c.watched = append(c.watched[:i], c.watched[i+1:]...)
			return
		}
	}
}

// busy sums the CPU time the watched processes have used.
func (c *calibrator) busy() (time.Duration, error) {
	var total time.Duration
	for _, pid := range c.watched {
		d, err := processCPU(pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// sample records one kernel time taken while the workload was quiet.
// Call it only while no map is in flight.
func (c *calibrator) sample() error {
	if c == nil {
		return nil
	}
	for try := 1; ; try++ {
		busy0, err := c.busy()
		if err != nil {
			return err
		}
		at := time.Now()
		d, err := c.run()
		if err != nil {
			return err
		}
		busy1, err := c.busy()
		if err != nil {
			return err
		}
		if (busy1-busy0)*calQuiet < d || try == calTries {
			c.samples = append(c.samples, calSample{at: at, d: d})
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// run asks the child for one kernel time.
func (c *calibrator) run() (time.Duration, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	return time.Duration(ns), nil
}

// due reports whether the interval every has passed since the last
// sample.
func (c *calibrator) due(every time.Duration) bool {
	return c != nil && (len(c.samples) == 0 || time.Since(c.samples[len(c.samples)-1].at) >= every)
}

// sampleIfDue samples when calEvery has passed since the last sample.
func (c *calibrator) sampleIfDue() error {
	if c.due(calEvery) {
		return c.sample()
	}
	return nil
}

// speed is the machine's speed at t relative to the reference: calRef
// over the median of the calNear samples nearest t. Above 1 the machine
// ran faster than the reference; a raw time times speed is in reference
// time.
func (c *calibrator) speed(t time.Time) float64 {
	if c == nil || len(c.samples) == 0 {
		return 1
	}
	n := len(c.samples)
	j := sort.Search(n, func(i int) bool { return !c.samples[i].at.Before(t) })
	lo := max(0, min(j-calNear/2, n-calNear))
	hi := min(n, lo+calNear)
	ds := make([]float64, 0, hi-lo)
	for _, s := range c.samples[lo:hi] {
		ds = append(ds, float64(s.d))
	}
	return float64(calRef) / median(ds)
}

// now is the current speed, from the latest samples.
func (c *calibrator) now() float64 { return c.speed(time.Now()) }

// stop ends the child, whose input closing is its signal to exit, and
// waits for it.
func (c *calibrator) stop() error {
	return errors.Join(c.in.Close(), c.cmd.Wait())
}
