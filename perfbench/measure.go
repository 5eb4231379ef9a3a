package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks; xs need not be sorted. NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 for every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after
	// its closing parenthesis, with state as field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSSMB returns process pid's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostFacts records what a drifting run needs to be diagnosed from
// its report alone.
func hostFacts() map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	// Cache sizes of cpu0, by level (the unified L2/L3 and the L1d).
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		typ, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		facts["L"+strings.TrimSpace(string(level))] = strings.TrimSpace(string(size))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		facts["loadavg"] = strings.TrimSpace(string(b))
	}
	return facts
}

// resetPeakRSS restarts pid's VmHWM from its current RSS, so a later
// procPeakRSSMB reports the peak of the interval in between.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// cpuTicks is the machine-wide CPU time split from /proc/stat.
type cpuTicks struct{ busy, idle, steal int64 }

func readCPUTicks() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		switch i {
		case 4, 5:
			t.idle += v
		case 8:
			t.steal += v
		default:
			t.busy += v
		}
	}
	return t
}

// hostShares reports how the machine's CPU time split over an
// interval: time the hypervisor stole from this VM makes every
// wall-clock metric worse without any change in the program.
func hostShares(a, b cpuTicks) map[string]float64 {
	busy, idle, steal := b.busy-a.busy, b.idle-a.idle, b.steal-a.steal
	total := float64(busy + idle + steal)
	if total == 0 {
		return nil
	}
	return map[string]float64{"busy_pct": 100 * float64(busy) / total,
		"idle_pct": 100 * float64(idle) / total, "steal_pct": 100 * float64(steal) / total}
}
