package main

import (
	"os"
	"strconv"
	"strings"
)

// hostCPU is a reading of the VM's CPU time from the cpu line of /proc/stat,
// in clock ticks.
type hostCPU struct{ steal, total uint64 }

// readHostCPU reads /proc/stat; where it cannot be read, the reading is zero
// and no interval counts as disturbed.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseHostCPU(line)
}

// parseHostCPU parses the aggregate cpu line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, guest, guest_nice.
func parseHostCPU(line string) hostCPU {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stolen is the share of the VM's CPU time between a and b that the
// hypervisor gave to other guests.
func stolen(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
