package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ecsdns/bench/stub"
)

// scanAuthScope is the scope authdns's default policy (source-4) gives
// the readiness probe's /24.
const scanAuthScope = 20

// scanLimit bounds one ecsscan run; a scan that stalls fails the run.
const scanLimit = 120 * time.Second

// writeTargets writes a target file of n lines all naming addr.
func writeTargets(path, addr string, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < n; i++ {
		fmt.Fprintln(w, addr)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanRun is one ecsscan -targets run, as seen from outside.
type scanRun struct {
	wall       time.Duration // spawn to exit
	cpu        time.Duration
	rssMB      float64
	ok         int   // result lines that read "rcode=NOERROR answers=1"
	sent       int64 // "udp sent" of the summary line
	summarised bool
}

// runScan runs ecsscan over a target file with every other flag at its
// default. Its output goes to a file, so the scan's wall time does not
// depend on how fast the harness reads, and is checked line by line
// after it has exited.
func runScan(bin, targets string) (scanRun, error) {
	var s scanRun
	out, err := os.Create(targets + ".out")
	if err != nil {
		return s, err
	}
	defer out.Close()
	start := stub.Now()
	c, err := spawn("ecsscan", bin, out, "-targets", targets)
	if err != nil {
		return s, err
	}
	if err := c.wait(scanLimit); err != nil {
		return s, err
	}
	s.wall = stub.Now().Sub(start)
	ps := c.cmd.ProcessState
	s.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	if _, err := out.Seek(0, 0); err != nil {
		return s, err
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.Contains(line, " targets: "):
			s.sent, s.summarised = summaryCounter(line, " udp sent")
		case strings.Contains(line, "rcode=NOERROR answers=1 "):
			s.ok++
		}
	}
	return s, sc.Err()
}

// summaryCounter reads the number that precedes label in ecsscan's
// summary line, e.g. "20000 udp sent".
func summaryCounter(line, label string) (int64, bool) {
	i := strings.Index(line, label)
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(strings.NewReplacer("(", " ", ";", " ").Replace(line[:i]))
	if len(f) == 0 {
		return 0, false
	}
	var n int64
	_, err := fmt.Sscan(f[len(f)-1], &n)
	return n, err == nil
}

// runScanRound spawns a fresh authdns, warms it with one scan and
// measures a window of scans of the same target file.
func runScanRound(bins binaries, ref *stub.RefClient, workDir string, targets int, window time.Duration) (*round, error) {
	r := newRound()
	t0 := stub.Now()

	auth, addr, ready, lost, err := startServer("authdns", bins.authdns, scanAuthScope, "-quiet")
	if err != nil {
		return nil, err
	}
	defer auth.stop()
	file := filepath.Join(workDir, "targets.txt")
	if err := writeTargets(file, addr, targets); err != nil {
		return nil, err
	}
	// scan runs ecsscan once and books what it did.
	sent, summarised, bad := int64(0), true, 0
	scan := func() (slice, error) {
		s, err := runScan(bins.ecsscan, file)
		if err != nil {
			return slice{}, err
		}
		r.attempted += targets
		bad += targets - s.ok
		sent += s.sent
		summarised = summarised && s.summarised
		r.cpu["ecsscan"] += s.cpu
		r.rss["ecsscan"] = max(r.rss["ecsscan"], s.rssMB)
		return slice{answers: s.ok, seconds: s.wall.Seconds()}, nil
	}
	if _, err := scan(); err != nil {
		return nil, err
	}
	r.cpu["ecsscan"] = 0

	// authdns idles through the reference slices, so its CPU over the
	// whole window is its CPU over the scans.
	cpu0, err := procCPU(auth.pid())
	if err != nil {
		return nil, err
	}
	r.setupS = stub.Now().Sub(t0).Seconds()
	if err := r.window(ref, window, scan); err != nil {
		return nil, err
	}
	if auth.exited() {
		return nil, auth.earlyExit()
	}
	cpu1, err := procCPU(auth.pid())
	if err != nil {
		return nil, err
	}
	r.cpu["authdns"] = cpu1 - cpu0
	if r.rss["authdns"], err = procHWM(auth.pid()); err != nil {
		return nil, err
	}
	r.attempted += ready + lost
	r.failed = lost + bad
	if bad > 0 {
		r.failures["ecsscan lines other than rcode=NOERROR answers=1, or missing"] = bad
	}

	auth.stop()
	if shed, ok := counter(auth.stderr.String(), "shed"); ok {
		r.shed = shed
	}
	c := check{Name: "scan-bulk.authdns_received"}
	got, ok := counter(auth.stderr.String(), "received")
	switch {
	case !ok || !summarised:
		c.Status, c.Detail = "unverified", "authdns printed no received= counter, or ecsscan no summary line"
	default:
		r.received = got
		want := int64(ready) + sent
		c.Status = "ok"
		c.Detail = fmt.Sprintf("authdns received %d, want %d (what ecsscan says it sent in %d scans + %d readiness probes); %d of %d targets responding",
			got, want, len(r.slices)+1, ready, r.attempted-ready-lost-bad, r.attempted-ready-lost)
		if got < want || got > want+int64(lost) || bad > 0 {
			c.Status = "violated"
		}
	}
	r.checks = append(r.checks, c)
	return r, nil
}
