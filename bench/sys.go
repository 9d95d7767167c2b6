package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// stolenSeconds is the CPU time the hypervisor has given to other guests
// while this one wanted to run, summed over the CPUs (the steal column of
// /proc/stat, in hundredths of a second), or 0 where that cannot be read.
// A run that was disturbed from outside says so in its own report.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / 100
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux counts KiB
