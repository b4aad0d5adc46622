package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/minic"
)

func TestTailPerMilleAgainstSampleCount(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {19, 0},
		{20, 500}, {39, 500},
		{40, 750}, {99, 750},
		{100, 900}, {199, 900},
		{200, 950}, {999, 950},
		{1000, 990}, {9999, 990},
		{10000, 999},
	}
	for _, c := range cases {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		pm := tailPerMille(n)
		if pm == 0 {
			continue
		}
		if beyond := n - rank(pm, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%s leaves %d samples beyond it, want >= %d", n, pmString(pm), beyond, minBeyond)
		}
		for _, higher := range tailLadder {
			if higher > pm && n-rank(higher, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%s although p%s also leaves %d samples beyond", n, pmString(pm), pmString(higher), minBeyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 5}, {750, 8}, {900, 9}, {999, 10}, {1, 1}} {
		if got := percentile(xs, c.pm); got != c.want {
			t.Errorf("percentile(p%s) = %v, want %v", pmString(c.pm), got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestCountingTransportCountsSendPayload checks that the byte count equals
// the payload bytes both ends handed to Send, and that frames pass through
// unchanged.
func TestCountingTransportCountsSendPayload(t *testing.T) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	var n, frames atomic.Int64
	ca, cb := countingTransport{a, &n, &frames}, countingTransport{b, &n, &frames}
	payloads := [][]byte{{}, []byte("offer"), bytes.Repeat([]byte{7}, 70000), []byte("x")}
	want := 0
	for i, p := range payloads {
		from, to := ca, cb
		if i%2 == 1 {
			from, to = cb, ca
		}
		errc := make(chan error, 1)
		go func() { errc <- from.Send(p) }()
		got, err := to.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d altered in transit", i)
		}
		want += len(p)
	}
	if n.Load() != int64(want) {
		t.Errorf("counted %d bytes, want %d", n.Load(), want)
	}
	if frames.Load() != int64(len(payloads)) {
		t.Errorf("counted %d frames, want %d", frames.Load(), len(payloads))
	}
}

func TestGenerateFromSeed(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		a, b := generate(s, 42), generate(s, 42)
		if a != b {
			t.Errorf("%s: seed 42 generated different inputs twice", s.name)
		}
		if a.firstPoll < 1 || a.firstPoll > firstPollSpread {
			t.Errorf("%s: first poll %d outside 1..%d", s.name, a.firstPoll, firstPollSpread)
		}
		if _, err := minic.Compile(a.source, minic.PollPolicy{}); err != nil {
			t.Errorf("%s: generated source does not compile: %v", s.name, err)
		}
	}
	tree, _ := lookupSpec("cold-tree")
	if generate(tree, 1).source == generate(tree, 2).source {
		t.Error("cold-tree: seeds 1 and 2 generated the same bitonic input")
	}
	shards, _ := lookupSpec("warm-shards")
	polls := map[int]bool{}
	for seed := int64(0); seed < 64; seed++ {
		polls[generate(shards, seed).firstPoll] = true
	}
	if len(polls) != firstPollSpread {
		t.Errorf("warm-shards: 64 seeds chose %d distinct first polls, want %d", len(polls), firstPollSpread)
	}
}

func TestFrameLogBetween(t *testing.T) {
	l := &frameLog{}
	t0 := time.Unix(100, 0)
	frame := func(typ uint32) []byte {
		return []byte{0x4d, 0x53, 0x45, 0x53, 0, 0, 0, byte(typ)}
	}
	l.add(true, true, t0, frame(msgOffer))
	l.add(true, false, t0.Add(2*time.Millisecond), frame(msgAccept))
	l.add(true, true, t0.Add(5*time.Millisecond), frame(msgDelta))
	l.add(true, true, t0.Add(9*time.Millisecond), frame(msgDelta))
	l.add(true, true, t0.Add(10*time.Millisecond), []byte("not a session frame"))
	l.add(true, false, t0.Add(14*time.Millisecond), frame(msgRestored))
	if got := l.between(is(true, true, msgOffer), is(true, false, msgAccept), false); got != 2*time.Millisecond {
		t.Errorf("handshake = %v, want 2ms", got)
	}
	if got := l.between(is(true, true, msgDelta), is(true, false, msgRestored), true); got != 5*time.Millisecond {
		t.Errorf("last delta to restored = %v, want 5ms", got)
	}
	if got := l.between(is(false, true, msgRestored), is(false, false, msgCommit), false); got != 0 {
		t.Errorf("missing frames gave %v, want 0", got)
	}
}

// TestMetricsMatchBenchmarkJSON checks that each run mode reports exactly
// the metrics BENCHMARK.json names for it, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: run reports %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("%s: %s named in BENCHMARK.json but not reported", kind, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s reported in %s, BENCHMARK.json says %s", kind, w.Name, m.Unit, w.Unit)
			}
		}
	}
	smp := samples{downCPU: []float64{1, 2}, totalCPU: []float64{1, 2}, wire: []float64{3, 3}}
	check("end_to_end", endToEndMetrics(smp, 500, []setupTimes{{cpu: time.Second}}, mib), bench.EndToEnd)
	for _, m := range []mode{cold, live, warm} {
		check("per_layer/"+m.String(), layerResult(layerSamples{}, m, tally{attempted: 1}), bench.PerLayer)
	}
}

func TestStealShare(t *testing.T) {
	before := []float64{100, 0, 50, 800, 0, 0, 10, 40, 0, 0}
	after := []float64{160, 0, 70, 900, 0, 0, 10, 60, 0, 0}
	// 200 ticks passed, 20 of them stolen.
	if got := stealShare(before, after); got != 0.1 {
		t.Errorf("stealShare = %v, want 0.1", got)
	}
	if got := stealShare(nil, after); got != 0 {
		t.Errorf("stealShare without a first reading = %v, want 0", got)
	}
	if cur := readCPUTimes(); cur != nil && len(cur) < 8 {
		t.Errorf("readCPUTimes returned %d fields, want at least 8", len(cur))
	}
}

func TestProcCPUAdvancesWithWork(t *testing.T) {
	before := procCPU()
	spins := 0
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		spins++
	}
	if after := procCPU(); after <= before {
		t.Errorf("process CPU time went from %v to %v over %d spins of busy work", before, after, spins)
	}
}
