package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cashmere/internal/transport"
)

// Frame classes of the per-layer transport.frames_* metrics.
const (
	classPage   = iota // page-req, page-reply
	classDiff          // diff, flush-ack
	classNotice        // write-notice, notice-ack
	classSync          // barrier, lock, flag and bye frames
	numClasses
)

func frameClass(wireName string) int {
	switch wireName {
	case "page-req", "page-reply":
		return classPage
	case "diff", "flush-ack":
		return classDiff
	case "write-notice", "notice-ack":
		return classNotice
	}
	return classSync
}

// usage is a reading (or a difference of two readings) of every
// process-wide cost the end-to-end metrics are made of.
type usage struct {
	wall      time.Duration
	cpu       time.Duration // user+sys, getrusage(RUSAGE_SELF)
	alloc     uint64        // MemStats.TotalAlloc
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
	sentBytes int64 // FrameStats sent bytes, all ranks
	frames    [numClasses]int64
}

func (u usage) sub(o usage) usage {
	u.wall -= o.wall
	u.cpu -= o.cpu
	u.alloc -= o.alloc
	u.mallocs -= o.mallocs
	u.gcCycles -= o.gcCycles
	u.gcPause -= o.gcPause
	u.sentBytes -= o.sentBytes
	for i := range u.frames {
		u.frames[i] -= o.frames[i]
	}
	return u
}

func (u usage) add(o usage) usage {
	u.wall += o.wall
	u.cpu += o.cpu
	u.alloc += o.alloc
	u.mallocs += o.mallocs
	u.gcCycles += o.gcCycles
	u.gcPause += o.gcPause
	u.sentBytes += o.sentBytes
	for i := range u.frames {
		u.frames[i] += o.frames[i]
	}
	return u
}

// meter reads usage; stats are the run's per-rank frame counters (none
// for the simulator).
type meter struct {
	epoch time.Time
	stats []*transport.FrameStats
}

func (m *meter) read() usage {
	if m.epoch.IsZero() {
		m.epoch = time.Now()
	}
	var u usage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc, u.mallocs = ms.TotalAlloc, ms.Mallocs
	u.gcCycles, u.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	for _, fs := range m.stats {
		for _, fl := range fs.Snapshot().Sent {
			u.sentBytes += fl.Bytes
			u.frames[frameClass(fl.Type)] += fl.Frames
		}
	}
	u.cpu = cpuTime()
	u.wall = time.Since(m.epoch)
	return u
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns this process's resident-set high-water mark
// (VmHWM) in MB, or 0 where /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

const mb = 1 << 20
