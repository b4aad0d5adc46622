package main

import (
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/link"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it.
const minBeyond = 10

// tailLadder holds the percentiles a tail is chosen from, in per mille.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// rank is the 1-based nearest-rank position of percentile pm (per mille)
// among n sorted samples.
func rank(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPerMille returns the highest ladder percentile (per mille) that
// leaves at least minBeyond of n samples above it, or 0 when even the
// median does not.
func tailPerMille(n int) int {
	best := 0
	for _, pm := range tailLadder {
		if n-rank(pm, n) >= minBeyond {
			best = pm
		}
	}
	return best
}

// percentile returns the nearest-rank percentile pm (per mille) of xs, or
// 0 for no samples. xs is not modified.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(pm, len(s))-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 500) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countingTransport counts the payload bytes and frames handed to Send.
// Both ends of a connection share one pair of counters, so the totals
// cover both directions.
type countingTransport struct {
	link.Transport
	bytes, frames *atomic.Int64
}

func (c countingTransport) Send(payload []byte) error {
	c.bytes.Add(int64(len(payload)))
	c.frames.Add(1)
	return c.Transport.Send(payload)
}

// procCPU is the CPU time, user and system, that all threads of this
// process have used. A guest kernel with paravirtual steal accounting
// leaves out the time the hypervisor gave to other guests (steal), which
// wall time on a shared host includes.
func procCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
