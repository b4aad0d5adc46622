package main

// The traced run: per-layer metrics, measured from outside the layers.
//
// Three sources feed it. Frame timestamps on the real migrations give the
// session layer's handshake and confirm times, the frame count and the
// live path's final wait. Runtime memory statistics around each real
// migration give the Go allocator's and collector's share. Replays on the
// paused state after the last migration time each remaining layer
// through its public functions: capture, snapshot parse, the stream
// chunk layer over loopback, restore, the checkpoint store and the live
// round capture.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/link"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/xdr"
)

// replayRuns is how many times each layer is replayed; the reported
// value is the median.
const replayRuns = 5

// The session layer's wire identifiers, as its package documents them:
// every session message starts with the magic "MSES" and its type.
const (
	sessionMagic = 0x4d534553
	msgOffer     = 1
	msgAccept    = 2
	msgRestored  = 4
	msgDelta     = 8
	msgCommit    = 12
)

// frameEvent is one frame crossing a transport end.
type frameEvent struct {
	at        time.Time
	initiator bool
	sent      bool
	// typ is the session message type, 0 for other layers' frames.
	typ uint32
}

// frameLog collects one migration's frame events from both ends.
type frameLog struct {
	mu sync.Mutex
	ev []frameEvent
}

func (l *frameLog) add(initiator, sent bool, at time.Time, frame []byte) {
	var typ uint32
	if len(frame) >= 8 && binary.BigEndian.Uint32(frame) == sessionMagic {
		typ = binary.BigEndian.Uint32(frame[4:])
	}
	l.mu.Lock()
	l.ev = append(l.ev, frameEvent{at: at, initiator: initiator, sent: sent, typ: typ})
	l.mu.Unlock()
}

// between returns the time from the first event matching from to the
// first later event matching to, or 0 when either is missing. last
// selects the last event matching from instead of the first.
func (l *frameLog) between(from, to func(frameEvent) bool, last bool) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var start time.Time
	for _, e := range l.ev {
		switch {
		case from(e) && (start.IsZero() || last):
			start = e.at
		case !start.IsZero() && to(e):
			return e.at.Sub(start)
		}
	}
	return 0
}

// is matches a session message by side, direction and type.
func is(initiator, sent bool, typ uint32) func(frameEvent) bool {
	return func(e frameEvent) bool { return e.initiator == initiator && e.sent == sent && e.typ == typ }
}

// loggingTransport timestamps every frame that crosses it: a sent frame
// when Send is called, a received one when Recv returns it.
type loggingTransport struct {
	link.Transport
	log       *frameLog
	initiator bool
}

func (t loggingTransport) Send(payload []byte) error {
	t.log.add(t.initiator, true, time.Now(), payload)
	return t.Transport.Send(payload)
}

func (t loggingTransport) Recv() ([]byte, error) {
	b, err := t.Transport.Recv()
	if err == nil {
		t.log.add(t.initiator, false, time.Now(), b)
	}
	return b, err
}

// tracer observes the traced run's migrations: it timestamps every frame of a
// migration and reads the Go runtime's memory statistics around it.
type tracer struct {
	l      layerSamples
	log    *frameLog
	before runtime.MemStats
}

func (t *tracer) wrap(ini, rsp link.Transport) (link.Transport, link.Transport) {
	t.log = &frameLog{}
	runtime.ReadMemStats(&t.before)
	return loggingTransport{ini, t.log, true}, loggingTransport{rsp, t.log, false}
}

func (t *tracer) done(h hop) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	l, log := t.l, t.log
	l.add("go.gc_pause_ms", float64(after.PauseTotalNs-t.before.PauseTotalNs)/1e6)
	l.add("go.alloc_MB", float64(after.TotalAlloc-t.before.TotalAlloc)/mib)
	l.add("link.frames", float64(h.frames))
	l.add("session.handshake_ms", ms(log.between(is(true, true, msgOffer), is(true, false, msgAccept), false)))
	l.add("session.confirm_ms", ms(log.between(is(false, true, msgRestored), is(false, false, msgCommit), false)))
	if lv := h.res.Live; lv != nil {
		final := lv.Rounds[len(lv.Rounds)-1]
		l.add("live.rounds", float64(len(lv.Rounds)))
		l.add("live.dirty_blocks_final", float64(final.DirtyBlocks))
		l.add("live.final_round_bytes", float64(final.Bytes))
		l.add("live.final_wait_ms", ms(log.between(is(true, true, msgDelta), is(true, false, msgRestored), true)))
	}
}

// layerSamples gathers each per-layer metric's samples by name.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// med is the median of a metric's samples, 0 when the layer did no work.
func (l layerSamples) med(name string) float64 { return median(l[name]) }

// traced is the traced run. It migrates for the budget, tracing every
// second pair of migrations with frame timestamps and memory statistics,
// and takes at least the workload's minimum sample count in all; then it
// replays every layer on the paused state; last, it runs the process to
// completion as the end-to-end run does.
func traced(c *chain, setups []setupTimes, budget time.Duration) result {
	var t tally
	l := layerSamples{}
	for _, st := range setups {
		l.add("minic.compile_ms", ms(st.compile))
		l.add("vm.run_to_poll_s", st.runToPoll.Seconds())
		l.add("wall.setup_s", st.total.Seconds())
	}
	half := c.spec.minSamples / 2
	plain, tr, err := measure(c, budget, half, &tracer{l: l})
	if t.phase(len(plain.downtime)+len(tr.downtime), err) == nil {
		if err = t.verdict(replay(c, l)); err == nil {
			err = t.verdict(c.finish())
		}
	}
	tail := tailPerMille(half)
	l.add("wall.downtime_ms.p50", median(plain.downtime))
	l.add("wall.downtime_ms.tail", percentile(plain.downtime, tail))
	l.add("wall.total_ms.p50", median(plain.total))
	down, trDown := median(plain.downCPU), median(tr.downCPU)
	l.add("trace_overhead_share", ratio(trDown-down, down))
	fmt.Printf("perfbench: traced run: %d untraced and %d traced migrations, alternating, then %d replays; wall tail = p%s; downtime CPU p50 untraced %.3f ms, traced %.3f ms\n",
		len(plain.downtime), len(tr.downtime), replayRuns, pmString(tail), down, trDown)
	return t.result(err, layerResult(l, c.spec.mode, t))
}

// layerResult computes the per-layer metrics of BENCHMARK.json from the
// samples and the tally.
//
// attributed_share divides the sum of the layer times on the blocking
// path by the untraced wall downtime median; the replays time layers in
// wall time too. It can exceed 1 where layers overlap:
// restore.restore_ms includes the section parse and CRC check that
// snapshot.parse_ms times alone (so parse is left out of the sum), and on
// the real cold path the stream layer ships chunks while the capture is
// still appending sections, which the replay times one after the other.
// On live-shards the path is the final round's capture, the final wait
// (which covers its wire exchange and the restore) and the confirm.
func layerResult(l layerSamples, m mode, t tally) map[string]metric {
	var blocking float64
	switch m {
	case cold:
		blocking = l.med("session.handshake_ms") + l.med("collect.capture_ms") + l.med("stream.transfer_ms") +
			l.med("restore.restore_ms") + l.med("session.confirm_ms")
	case warm:
		blocking = l.med("session.handshake_ms") + l.med("collect.capture_ms") + l.med("store.checkpoint_ms") +
			l.med("store.missing_ms") + l.med("store.materialize_ms") + l.med("restore.restore_ms") +
			l.med("session.confirm_ms")
	case live:
		blocking = l.med("live.final_capture_ms") + l.med("live.final_wait_ms") + l.med("session.confirm_ms")
	}
	out := map[string]metric{
		"attributed_share": {ratio(blocking, l.med("wall.downtime_ms.p50")), "share"},
		"failed_share":     {ratio(float64(t.failed), float64(t.attempted)), "share"},
	}
	for _, lm := range layerMetrics {
		out[lm.name] = metric{l.med(lm.name), lm.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics lists the per-layer metrics taken as sample medians, with
// their units; attributed_share and failed_share are computed in
// layerResult.
var layerMetrics = []struct{ name, unit string }{
	{"session.handshake_ms", "ms"}, {"session.confirm_ms", "ms"}, {"link.frames", "count"},
	{"collect.capture_ms", "ms"}, {"collect.search_ms", "ms"}, {"collect.encode_ms", "ms"},
	{"collect.blocks", "count"}, {"collect.pointers", "count"}, {"msr.search_steps_per_lookup", "count"},
	{"snapshot.sections", "count"}, {"snapshot.parse_ms", "ms"},
	{"stream.transfer_ms", "ms"}, {"stream.chunks", "count"}, {"stream.stall_ms", "ms"}, {"stream.close_wait_ms", "ms"},
	{"restore.restore_ms", "ms"}, {"restore.msrlt_update_ms", "ms"}, {"restore.decode_ms", "ms"},
	{"restore.blocks_allocated", "count"}, {"restore.allocs", "count"}, {"restore.alloc_MB", "MB"},
	{"store.checkpoint_ms", "ms"}, {"store.missing_ms", "ms"}, {"store.materialize_ms", "ms"},
	{"store.new_blobs", "count"}, {"store.dedup_share", "share"},
	{"live.rounds", "count"}, {"live.round_capture_ms", "ms"}, {"live.final_capture_ms", "ms"},
	{"live.dirty_blocks_final", "count"}, {"live.final_round_bytes", "B"}, {"live.final_wait_ms", "ms"},
	{"go.gc_pause_ms", "ms"}, {"go.alloc_MB", "MB"},
	{"minic.compile_ms", "ms"}, {"vm.run_to_poll_s", "s"},
	{"wall.downtime_ms.p50", "ms"}, {"wall.downtime_ms.tail", "ms"}, {"wall.total_ms.p50", "ms"}, {"wall.setup_s", "s"},
	{"trace_overhead_share", "share"},
}

// replay times every layer replayRuns times on the chain's paused
// process. Shards workloads advance one poll between replays, so each
// replay sees one changed heap list, as a migration does; the cold
// programs have a single poll and replay the same state.
func replay(c *chain, l layerSamples) error {
	rounds := int(median(l["live.rounds"]))
	for i := 0; i < replayRuns; i++ {
		if i > 0 && c.spec.rounds > 0 {
			if err := c.advance(); err != nil {
				return err
			}
		}
		snap, err := replayCollect(c, l)
		if err != nil {
			return err
		}
		if err := replayParse(snap, l); err != nil {
			return err
		}
		if c.spec.mode == cold {
			if err := replayStream(snap, l); err != nil {
				return err
			}
		}
		if err := replayRestore(c, snap, l); err != nil {
			return err
		}
		if c.spec.mode == warm {
			if err := replayStore(c, snap, l); err != nil {
				return err
			}
		}
		if c.spec.mode == live {
			if err := replayLive(c, rounds, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayCollect times the sectioned capture the migration path uses, and
// takes the search/encode split from an instrumented monolithic capture
// of the same state: the sectioned encoder does not time its parts.
func replayCollect(c *chain, l layerSamples) ([]byte, error) {
	p := c.p
	start := time.Now()
	snap, err := p.CaptureSections(0)
	if err != nil {
		return nil, err
	}
	l.add("collect.capture_ms", ms(time.Since(start)))
	save := p.CaptureStats().Save
	l.add("collect.blocks", float64(save.Blocks))
	l.add("collect.pointers", float64(save.Pointers))
	steps := 0.0
	if save.Searches > 0 {
		steps = float64(save.SearchSteps) / float64(save.Searches)
	}
	l.add("msr.search_steps_per_lookup", steps)

	p.Instrument = true
	_, err = p.Recapture()
	p.Instrument = false
	if err != nil {
		return nil, err
	}
	save = p.CaptureStats().Save
	l.add("collect.search_ms", ms(save.SearchTime))
	l.add("collect.encode_ms", ms(save.EncodeTime))
	return snap, nil
}

// replayParse times the section framing and CRC check of a snapshot.
func replayParse(snap []byte, l layerSamples) error {
	start := time.Now()
	rd, err := snapshot.NewReader(xdr.NewDecoder(snap))
	if err != nil {
		return err
	}
	secs, err := rd.ReadAll()
	if err != nil {
		return err
	}
	l.add("snapshot.parse_ms", ms(time.Since(start)))
	l.add("snapshot.sections", float64(len(secs)))
	return nil
}

// replayStream sends a snapshot through the stream chunk layer over
// loopback TCP with the session's default chunk size and window, and
// checks the receiver got it whole.
func replayStream(snap []byte, l layerSamples) error {
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := stream.Config{ChunkSize: 256 << 10, Window: 16}
	type got struct {
		b   []byte
		at  time.Time
		err error
	}
	done := make(chan got, 1)
	go func() {
		b, err := stream.NewReader(srv, cfg).ReadAll()
		done <- got{b, time.Now(), err}
	}()
	start := time.Now()
	w := stream.NewWriter(cli, cfg)
	_, werr := w.Write(snap)
	if werr == nil {
		werr = w.Close()
	}
	if werr != nil {
		cleanup()
	}
	g := <-done
	if werr != nil {
		return werr
	}
	if g.err != nil {
		return g.err
	}
	if !bytes.Equal(g.b, snap) {
		return fmt.Errorf("stream replay delivered %d bytes, want the %d sent", len(g.b), len(snap))
	}
	st := w.Stats()
	l.add("stream.transfer_ms", ms(g.at.Sub(start)))
	l.add("stream.chunks", float64(st.Chunks))
	l.add("stream.stall_ms", ms(st.StallTime))
	l.add("stream.close_wait_ms", ms(st.CloseWait))
	return nil
}

// replayRestore restores a snapshot on the other machine of the pair
// with instrumentation on, counting the Go allocations it makes.
func replayRestore(c *chain, snap []byte, l layerSamples) error {
	q, err := c.eng.NewProcess(c.mach[1-c.at])
	if err != nil {
		return err
	}
	q.Instrument = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = q.RestoreInto(snap)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rs := q.RestoreStatsOf()
	l.add("restore.restore_ms", ms(elapsed))
	l.add("restore.msrlt_update_ms", ms(rs.UpdateTime))
	l.add("restore.decode_ms", ms(rs.DecodeTime))
	l.add("restore.blocks_allocated", float64(rs.Allocated))
	l.add("restore.allocs", float64(after.Mallocs-before.Mallocs))
	l.add("restore.alloc_MB", float64(after.TotalAlloc-before.TotalAlloc)/mib)
	return nil
}

// replayStore runs the warm path's store operations on a snapshot: the
// initiator's checkpoint, the responder's missing-body lookup, and —
// once the responder holds the bodies — its materialization, which must
// reproduce the snapshot exactly. The replay chains under its own ref so
// the program's ref is untouched.
func replayStore(c *chain, snap []byte, l layerSamples) error {
	ini, rsp := c.stores[c.at], c.stores[1-c.at]
	start := time.Now()
	m, _, cst, err := ini.CheckpointRef("replay", snap, c.eng.Digest(), c.mach[c.at].Name)
	if err != nil {
		return err
	}
	l.add("store.checkpoint_ms", ms(time.Since(start)))
	l.add("store.new_blobs", float64(cst.NewBlobs))
	l.add("store.dedup_share", float64(cst.DupBlobs)/float64(cst.Sections))

	start = time.Now()
	want := rsp.Missing(m)
	l.add("store.missing_ms", ms(time.Since(start)))
	for _, i := range want {
		body, err := ini.GetBlob(m.Entries[i].Hash)
		if err != nil {
			return err
		}
		if _, _, err := rsp.PutBlob(body); err != nil {
			return err
		}
	}
	h, err := rsp.PutManifest(m)
	if err != nil {
		return err
	}
	start = time.Now()
	out, err := rsp.Materialize(h)
	if err != nil {
		return err
	}
	l.add("store.materialize_ms", ms(time.Since(start)))
	if !bytes.Equal(out, snap) {
		return fmt.Errorf("materialized snapshot differs from the checkpointed one (%d vs %d bytes)", len(out), len(snap))
	}
	return nil
}

// replayLive replays one live migration's captures: rounds LiveCapture
// rounds, the source advancing one poll between them as it does while a
// round ships. live.round_capture_ms is their sum, live.final_capture_ms
// the last (paused) round alone.
func replayLive(c *chain, rounds int, l layerSamples) error {
	if rounds < 1 {
		rounds = 1
	}
	lc := c.p.NewLiveCapture(0)
	defer lc.Close()
	var sum, last time.Duration
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := c.advance(); err != nil {
				return err
			}
		}
		rd, err := lc.Round()
		if err != nil {
			return err
		}
		last = rd.Elapsed
		sum += last
	}
	l.add("live.round_capture_ms", ms(sum))
	l.add("live.final_capture_ms", ms(last))
	return nil
}
