package stream

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"repro/internal/link"
	"repro/internal/obs"
)

// testPayload builds deterministic pseudo-random bytes.
func testPayload(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	r.Read(p)
	return p
}

// runReader drains a Reader in a goroutine, returning a channel with the
// reassembled stream.
type readResult struct {
	data  []byte
	err   error
	stats ReaderStats
}

func runReader(r *Reader) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		data, err := r.ReadAll()
		out <- readResult{data, err, r.Stats()}
	}()
	return out
}

func TestWriterReaderRoundTrip(t *testing.T) {
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2}
	sizes := []int{0, 1, 1023, 1024, 1025, 64 * 1024, 200000}
	for _, n := range sizes {
		a, b := link.Pipe()
		res := runReader(NewReader(b, cfg))
		w := NewWriter(a, cfg)
		payload := testPayload(n, int64(n))
		// Write in awkward slices to exercise chunk boundary handling.
		for off := 0; off < len(payload); {
			m := 700
			if off+m > len(payload) {
				m = len(payload) - off
			}
			if _, err := w.Write(payload[off : off+m]); err != nil {
				t.Fatalf("n=%d: write: %v", n, err)
			}
			off += m
		}
		if err := w.Close(); err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
		r := <-res
		if r.err != nil {
			t.Fatalf("n=%d: read: %v", n, r.err)
		}
		if !bytes.Equal(r.data, payload) {
			t.Fatalf("n=%d: reassembled stream differs (%d vs %d bytes)", n, len(r.data), len(payload))
		}
		ws := w.Stats()
		wantChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
		if ws.Chunks != wantChunks || r.stats.Chunks != wantChunks {
			t.Errorf("n=%d: chunks sent=%d recv=%d, want %d", n, ws.Chunks, r.stats.Chunks, wantChunks)
		}
		a.Close()
		b.Close()
	}
}

func TestWriterReaderLoopbackTCP(t *testing.T) {
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	cfg := Config{ChunkSize: 32 * 1024, Window: 8}
	payload := testPayload(1<<20, 7)
	res := runReader(NewReader(srv, cfg))
	w := NewWriter(cli, cfg)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Error("TCP stream mismatch")
	}
}

func TestReaderDeliversIncrementally(t *testing.T) {
	cfg := Config{ChunkSize: 100, Window: 2, AckEvery: 1}
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	payload := testPayload(950, 3)
	r := NewReader(b, cfg)
	w := NewWriter(a, cfg)
	go func() {
		w.Write(payload)
		w.Close()
	}()
	var got []byte
	chunks := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Every chunk except the tail is exactly ChunkSize: in-order
		// incremental delivery, not one final buffer.
		if chunks < 9 && len(p) != 100 {
			t.Fatalf("chunk %d has %d bytes", chunks, len(p))
		}
		chunks++
		got = append(got, p...)
	}
	if chunks != 10 || !bytes.Equal(got, payload) {
		t.Errorf("incremental read: %d chunks, match=%v", chunks, bytes.Equal(got, payload))
	}
}

// killAfterSends lets n Sends through, then closes the connection and
// fails every later Send. Only the Writer's transmit goroutine sends on
// its transport, so the countdown needs no lock.
type killAfterSends struct {
	link.Transport
	n int
}

func (k *killAfterSends) Send(b []byte) error {
	if k.n <= 0 {
		k.Transport.Close()
		return link.ErrClosed
	}
	k.n--
	return k.Transport.Send(b)
}

func TestWriterFailsOnDeadTransport(t *testing.T) {
	cfg := Config{ChunkSize: 256, Window: 2}
	a, b := link.Pipe()
	defer b.Close()
	res := runReader(NewReader(b, cfg))
	w := NewWriter(&killAfterSends{Transport: a, n: 3}, cfg)
	payload := testPayload(64*1024, 11)
	_, werr := w.Write(payload)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Error("transfer over a killed transport reported success")
	}
	if r := <-res; r.err == nil {
		t.Error("reader reported success after the sender's transport died")
	}
}

func TestParseMessageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		marshalSeq(99, 0),   // unknown type
		marshalSeq(1, 0),    // unassigned type
		marshalSeq(2, 0),    // unassigned type
		marshalDone(1)[:10], // truncated
		append([]byte{0, 0, 0, 0}, marshalDone(1)[4:]...), // bad magic
	}
	for i, raw := range cases {
		if _, err := parseMessage(raw); !errors.Is(err, ErrProtocol) {
			t.Errorf("case %d: got %v, want ErrProtocol", i, err)
		}
	}
}

// TestReaderRejectsDamage feeds a Reader hand-built frame sequences, one
// per kind of damage. Each must end the transfer with ErrVerify after one
// NACK to the sender, without waiting for anything further.
func TestReaderRejectsDamage(t *testing.T) {
	c0 := chunk{seq: 0, payload: []byte("chunk zero")}
	c1 := chunk{seq: 1, payload: []byte("chunk one!")}
	good0 := marshalData(c0, crc32.ChecksumIEEE(c0.payload))
	cases := []struct {
		name   string
		frames [][]byte
	}{
		{"payload crc", [][]byte{marshalData(c0, crc32.ChecksumIEEE(c0.payload)^1)}},
		{"sequence gap", [][]byte{marshalData(c1, crc32.ChecksumIEEE(c1.payload))}},
		{"fin chunk count", [][]byte{good0, marshalFin(2, uint64(len(c0.payload)), crc32.ChecksumIEEE(c0.payload))}},
		{"fin stream crc", [][]byte{good0, marshalFin(1, uint64(len(c0.payload)), 0)}},
		{"frame checksum", nil}, // the transport reports link.ErrChecksum
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := link.Pipe()
			defer a.Close()
			defer b.Close()
			var rt link.Transport = b
			if c.frames == nil {
				rt = checksumFailure{b}
			}
			for _, f := range c.frames {
				if err := a.Send(f); err != nil {
					t.Fatal(err)
				}
			}
			fr := obs.NewFlightRecorder(0)
			r := NewReader(rt, Config{AckEvery: 16, Recorder: fr})
			if _, err := r.ReadAll(); !errors.Is(err, ErrVerify) {
				t.Fatalf("read = %v, want ErrVerify", err)
			}
			raw, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m, err := parseMessage(raw); err != nil || m.typ != msgNack {
				t.Errorf("sender got %+v (%v), want a NACK", m, err)
			}
			if r.Stats().Nacks != 1 {
				t.Errorf("nacks = %d, want 1", r.Stats().Nacks)
			}
			if ev := fr.Events(); len(ev) != 1 || ev[0].Kind != "stream.nack" {
				t.Errorf("recorder events = %v, want one stream.nack", ev)
			}
		})
	}
}

// checksumFailure is a transport whose every Recv reports a corrupt but
// fully consumed frame.
type checksumFailure struct{ link.Transport }

func (checksumFailure) Recv() ([]byte, error) { return nil, link.ErrChecksum }

// corruptNthData flips the first payload byte of the n-th DATA frame
// (1-based) it receives.
type corruptNthData struct {
	link.Transport
	n int
}

func (c *corruptNthData) Recv() ([]byte, error) {
	raw, err := c.Transport.Recv()
	if err == nil {
		if m, perr := parseMessage(raw); perr == nil && m.typ == msgData {
			if c.n--; c.n == 0 {
				// magic, type, seq, crc, and the opaque length precede
				// the payload.
				raw[20] ^= 0xff
			}
		}
	}
	return raw, err
}

// TestFlightRecorderAndAckRTT verifies the observability hooks of the
// plain Writer/Reader pair: a corrupted chunk leaves a stream.nack event
// in the flight recorder and fails both ends with ErrVerify, and a clean
// transfer feeds the ack round-trip histogram.
func TestFlightRecorderAndAckRTT(t *testing.T) {
	payload := testPayload(20*1024, 21)

	fr := obs.NewFlightRecorder(0)
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2, Recorder: fr}
	a, b := link.Pipe()
	res := runReader(NewReader(&corruptNthData{Transport: b, n: 4}, cfg))
	w := NewWriter(a, cfg)
	_, werr := w.Write(payload)
	cerr := w.Close()
	r := <-res
	a.Close()
	b.Close()
	if !errors.Is(r.err, ErrVerify) {
		t.Errorf("reader error = %v, want ErrVerify", r.err)
	}
	if !errors.Is(cerr, ErrVerify) {
		t.Errorf("writer error = %v (write %v), want ErrVerify", cerr, werr)
	}
	if r.stats.Chunks != 3 {
		t.Errorf("reader delivered %d chunks before the corrupt one, want 3", r.stats.Chunks)
	}
	kinds := map[string]bool{}
	for _, ev := range fr.Events() {
		kinds[ev.Kind] = true
	}
	if !kinds["stream.nack"] {
		t.Errorf("recorder missing stream.nack event: %v", kinds)
	}

	before := obs.Default.Histogram("stream.ack.rtt").Count()
	a, b = link.Pipe()
	defer a.Close()
	defer b.Close()
	res = runReader(NewReader(b, cfg))
	w = NewWriter(a, cfg)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.err != nil || !bytes.Equal(r.data, payload) {
		t.Fatalf("clean transfer: err=%v match=%v", r.err, bytes.Equal(r.data, payload))
	}
	if after := obs.Default.Histogram("stream.ack.rtt").Count(); after <= before {
		t.Errorf("ack RTT histogram did not grow (%d -> %d)", before, after)
	}
}
