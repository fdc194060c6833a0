package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is the per-run record of the machine and its noise. It is
// printed beside the metrics and never gated: it explains a spread, it
// does not judge one.
type environment struct {
	NProc       int
	GoMaxProcs  int
	MemTotalMB  float64
	GoVersion   string
	Commit      string
	LoadAvg     string // 1-minute load average when the run started
	StealPct    float64
	stealBefore cpuTimes
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func startEnvironment(commit string) *environment {
	e := &environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		LoadAvg:    "unknown",
	}
	if kb, ok := procField("/proc/meminfo", "MemTotal:"); ok {
		e.MemTotalMB = kb / 1024
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg = f[0]
		}
	}
	e.stealBefore = readCPUTimes()
	return e
}

// finish records the steal share of CPU time since startEnvironment.
func (e *environment) finish() {
	now := readCPUTimes()
	if dt := now.total - e.stealBefore.total; dt > 0 {
		e.StealPct = 100 * float64(now.steal-e.stealBefore.steal) / float64(dt)
	}
}

func (e *environment) String() string {
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d memtotal_mb=%.0f go=%s commit=%s loadavg_start=%s steal_pct=%.2f",
		e.NProc, e.GoMaxProcs, e.MemTotalMB, e.GoVersion, e.Commit, e.LoadAvg, e.StealPct)
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i, s := range fields[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	kb, ok := procField("/proc/self/status", "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
	}
	return kb / 1024, nil
}

// procField reads the numeric value (in kB) of a "Key: value kB" line.
func procField(path, key string) (float64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			if fs := strings.Fields(rest); len(fs) > 0 {
				v, err := strconv.ParseFloat(fs[0], 64)
				return v, err == nil
			}
		}
	}
	return 0, false
}
