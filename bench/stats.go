package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// quartiles summarizes a sample list for the results file, so the
// spread of a metric is visible next to its median.
type quartiles struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func quartilesOf(xs []float64) quartiles {
	return quartiles{N: len(xs), Q1: quantile(xs, 0.25), Median: median(xs), Q3: quantile(xs, 0.75)}
}

// peakRSSMB reads the process's resident-set high-water mark. It
// returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// restartPeakRSS restarts the resident-set high-water mark at the
// current size, so that the mark read after a round is that round's.
// Where the kernel refuses, the mark keeps its history.
func restartPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// hostCPU is a reading of the machine's processor accounting: the time
// its processors spent running anything, and the time they had work but
// the hypervisor ran another guest instead ("steal"), in clock ticks.
type hostCPU struct{ busy, stolen float64 }

// readHostCPU reads the first line of /proc/stat. Where there is none,
// nothing is ever stolen.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, field := range f[1:9] {
		ticks, err := strconv.ParseFloat(field, 64)
		switch {
		case err != nil:
			return hostCPU{}
		case i == 7:
			h.stolen = ticks
		case i != 3 && i != 4: // neither idle nor waiting for a disk
			h.busy += ticks
		}
	}
	return h
}

// grantedSince is the share of the processor time the machine asked for
// since the reading h that it was given: busy over busy plus stolen.
//
// The benchmark multiplies its times by it. On the shared host this was
// written on, a fifth of the time asked for is stolen on average and
// between 2 and 50 % in any one round, and a round's length follows what
// was stolen from it (correlation 0.9 and above): as the clock read them,
// ten runs of a workload spread by 13-27 % of their median, corrected by
// 3-15 % (plan-search once 24 %). The benchmark runs nothing beside the
// program, so what the machine asked for is what the program and its
// generator asked for.
func (h hostCPU) grantedSince() float64 {
	now := readHostCPU()
	busy, stolen := now.busy-h.busy, now.stolen-h.stolen
	if busy <= 0 || stolen <= 0 {
		return 1
	}
	return busy / (busy + stolen)
}
