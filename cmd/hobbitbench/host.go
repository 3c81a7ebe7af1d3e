package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a result was measured on. Timings
// from hosts with another core count, GOMAXPROCS, or toolchain are not
// comparable, so every output carries this block.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// calibrationHost is the host the bounds in BENCHMARK.json and the
// accuracy floors were calibrated on.
var calibrationHost = hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}

func currentHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     buildCommit(),
	}
}

// buildCommit is the VCS revision the go tool stamped into the binary,
// or "unknown" when it was built outside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s %s/%s commit=%s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
}

// differsFrom reports the fields in which h and the calibration host
// differ ("" when the timings are comparable).
func (h hostInfo) differsFrom(c hostInfo) string {
	var d []string
	if h.NumCPU != c.NumCPU {
		d = append(d, fmt.Sprintf("nproc %d vs %d", h.NumCPU, c.NumCPU))
	}
	if h.GOMAXPROCS != c.GOMAXPROCS {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", h.GOMAXPROCS, c.GOMAXPROCS))
	}
	if h.GoVersion != c.GoVersion {
		d = append(d, fmt.Sprintf("go %s vs %s", h.GoVersion, c.GoVersion))
	}
	if h.GOOS != c.GOOS || h.GOARCH != c.GOARCH {
		d = append(d, fmt.Sprintf("platform %s/%s vs %s/%s", h.GOOS, h.GOARCH, c.GOOS, c.GOARCH))
	}
	return strings.Join(d, ", ")
}

// cpuTime is the user+system CPU this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the VmHWM (peak resident set) line of a
// /proc/<pid>/status file, in MiB.
func peakRSSMB(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM in %s: %w", statusPath, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", statusPath)
}

// procCPU reads the user+system CPU time of another process from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; the fields after
	// its closing parenthesis are fixed: utime and stime are fields 14
	// and 15 of the line, 12 and 13 after the parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	// Linux reports these in clock ticks, USER_HZ = 100 on every
	// mainstream architecture.
	const ticksPerSecond = 100
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}
