// Command perfbench is the repository's migration benchmark. It runs real
// heterogeneous migrations end to end over loopback TCP, with the
// initiator (session.Initiate / InitiateLive) and the responder
// (session.Respond) both inside this process, one migration in flight at
// a time: a closed loop, as a scheduler issues them.
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json
// (downtime, total time, wire bytes, set-up time, peak memory); with
// --trace 1 it reports the per-layer metrics, timed from outside each
// layer by calling its public functions. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The end-to-end times are the CPU time this process (both sides) spends
// over each interval, not its wall time: on a shared virtual machine the
// hypervisor's steal stretches wall time by as much as a factor of two
// from one run to the next, while the kernel leaves steal out of CPU
// time. Every run prints the wall times beside them, with the host's
// steal share, and the traced run reports them as wall.* metrics.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload cold-array --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 3

// measureLimit is how long after start-up a run stops taking new
// migrations, even short of minSamples, so it exits within three minutes
// on a slow or contended host.
const measureLimit = 140 * time.Second

// mib is the size "MB" stands for in metric names.
const mib = 1 << 20

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	started := time.Now()
	name := flag.String("workload", "", "workload name (cold-array, cold-tree, live-shards, warm-shards)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the timed migrations run at least")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer metrics of a traced run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench", "work"), "directory for checkpoint stores")
	flag.Parse()
	s, err := lookupSpec(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, s.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(dir)

	in := generate(s, *seed)
	c, setups, err := setUp(s, in, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", s.name, err)
		return 1
	}
	c.deadline = started.Add(measureLimit)
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res = endToEnd(c, setups, budget)
	} else {
		res = traced(c, setups, budget)
	}
	describeHost(s, *seed, *trace, res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setUp sets the workload up setupRuns times, each in its own store
// directory, and returns the last chain with every set-up's times.
func setUp(s *spec, in inputs, dir string) (*chain, []setupTimes, error) {
	var c *chain
	var times []setupTimes
	for i := 0; i < setupRuns; i++ {
		if c != nil {
			// Drop the previous set-up's stores and process before the
			// next one is timed.
			removeAll(filepath.Join(dir, strconv.Itoa(i-1)))
			c = nil
			runtime.GC()
		}
		var st setupTimes
		var err error
		if c, st, err = newChain(s, in, filepath.Join(dir, strconv.Itoa(i))); err != nil {
			return nil, nil, err
		}
		times = append(times, st)
	}
	return c, times, nil
}

// samples collects the per-migration timings of one measuring phase.
type samples struct {
	downtime, total, downCPU, totalCPU, wire []float64
}

func (s *samples) add(h hop) {
	s.downtime = append(s.downtime, ms(h.downtime))
	s.total = append(s.total, ms(h.total))
	s.downCPU = append(s.downCPU, ms(h.downCPU))
	s.totalCPU = append(s.totalCPU, ms(h.totalCPU))
	s.wire = append(s.wire, float64(h.wire))
}

// measure migrates back and forth for at least budget and at least
// minSamples migrations, and returns their samples. When tr is set, every
// second pair of migrations is traced by it and its samples are returned
// apart (each kind at least minSamples times): alternating lets traced
// and untraced migrations see the same host conditions, and going by
// pairs lets each kind cross both ways between the machines. It stops early at the chain's
// deadline, or when a shards program is about to run out of polls. The
// error is the first failed migration, which ends the phase.
func measure(c *chain, budget time.Duration, minSamples int, tr *tracer) (plain, traced samples, err error) {
	start := time.Now()
	for n := 0; ; n++ {
		enough := len(plain.downtime) >= minSamples && (tr == nil || len(traced.downtime) >= minSamples)
		if (time.Since(start) >= budget && enough) || time.Now().After(c.deadline) || !c.canMigrate() {
			return plain, traced, nil
		}
		var by *tracer
		if n%4 >= 2 {
			by = tr
		}
		// Collect the previous migration's garbage outside the timed
		// window, so every migration starts from the same heap and pays
		// only for the collections its own allocations cause.
		runtime.GC()
		h, err := c.migrate(by)
		if err != nil {
			return plain, traced, fmt.Errorf("migration %d: %w", n+1, err)
		}
		if by != nil {
			traced.add(h)
		} else {
			plain.add(h)
		}
	}
}

// tally counts a run's attempted and failed migrations.
type tally struct{ attempted, failed int }

// phase adds a measuring phase of n completed migrations; its error is
// one more migration that was attempted and failed.
func (t *tally) phase(n int, err error) error {
	t.attempted += n
	if err != nil {
		t.attempted++
		t.failed++
	}
	return err
}

// verdict adds a check of migrations already counted: a failure marks the
// last of them failed.
func (t *tally) verdict(err error) error {
	if err != nil {
		t.failed++
	}
	return err
}

// result reports the tally with the metrics, printing err (the first
// failure, if any) on stderr.
func (t tally) result(err error, metrics map[string]metric) result {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// endToEnd is the untraced run: the end-to-end metrics.
func endToEnd(c *chain, setups []setupTimes, budget time.Duration) result {
	var t tally
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS includes set-up:", err)
	}
	cpu0 := readCPUTimes()
	smp, _, err := measure(c, budget, c.spec.minSamples, nil)
	peak := peakRSS()
	steal := stealShare(cpu0, readCPUTimes())
	if t.phase(len(smp.downtime), err) == nil {
		err = t.verdict(c.finish())
	}
	tail := tailPerMille(c.spec.minSamples)
	fmt.Printf("perfbench: %d timed migrations; p50 over all, tail = p%s (at least %d samples beyond it); wall downtime p50 %.3f ms, tail %.3f ms, total p50 %.3f ms; host CPU steal %.1f%% of CPU time while timing\n",
		len(smp.downtime), pmString(tail), minBeyond, median(smp.downtime), percentile(smp.downtime, tail), median(smp.total), 100*steal)
	return t.result(err, endToEndMetrics(smp, tail, setups, peak))
}

// endToEndMetrics computes the end-to-end metrics of BENCHMARK.json: the
// median and the tail percentile tail (per mille) of the CPU time spent
// in downtime, the median CPU time of the whole migration and its median
// wire bytes, the median set-up CPU time, and the peak resident set in
// bytes. They are CPU times, not wall times, so that a shared host's steal
// does not move them; the wall times are printed beside them and reported
// by the traced run.
func endToEndMetrics(smp samples, tail int, setups []setupTimes, peak float64) map[string]metric {
	setupS := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.cpu.Seconds()
	}
	return map[string]metric{
		"downtime_cpu_ms.p50":  {median(smp.downCPU), "ms"},
		"downtime_cpu_ms.tail": {percentile(smp.downCPU, tail), "ms"},
		"total_cpu_ms.p50":     {median(smp.totalCPU), "ms"},
		"wire_bytes":           {median(smp.wire), "B"},
		"setup_s":              {median(setupS), "s"},
		"peak_rss_MB":          {peak / mib, "MB"},
	}
}

// pmString renders a per-mille percentile as "90" or "99.9".
func pmString(pm int) string {
	return strconv.FormatFloat(float64(pm)/10, 'f', -1, 64)
}

// resetPeakRSS restarts the kernel's peak-resident-set counter for this
// process, so peakRSS covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads this process's peak resident set (VmHWM) in bytes.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS:", err)
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: peak RSS: no VmHWM in /proc/self/status")
	return 0
}

// readCPUTimes reads the host's aggregate CPU time counters, in clock
// ticks, from the first line of /proc/stat; nil if it cannot.
func readCPUTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil
		}
		out = append(out, x)
	}
	return out
}

// stealShare is the share of all CPU time between two readCPUTimes
// readings that the hypervisor gave to other guests (the eighth field):
// time the machine's processors could not run the benchmark at all. The
// run prints it so that a reader can tell host interference from a change
// in the program; it is 0 if either reading failed.
func stealShare(before, after []float64) float64 {
	if len(before) < 8 || len(after) != len(before) {
		return 0
	}
	var total float64
	for i := range after {
		total += after[i] - before[i]
	}
	return ratio(after[7]-before[7], total)
}

// describeHost prints what a reader needs to compare runs: the host, the
// Go version, GOMAXPROCS and the sample counts.
func describeHost(s *spec, seed int64, trace int, res result) {
	host, _ := os.Hostname()
	fmt.Printf("perfbench: workload=%s mode=%s machines=%s<->%s seed=%d trace=%d host=%s cpu=%q go=%s gomaxprocs=%d numcpu=%d setups=%d attempted=%d failed=%d\n",
		s.name, s.mode, s.a.Name, s.b.Name, seed, trace, host, cpuModel(), runtime.Version(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), setupRuns, res.Attempted, res.Failed)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
