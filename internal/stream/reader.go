package stream

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/link"
)

// ReaderStats summarizes one streamed transfer from the receiving side.
type ReaderStats struct {
	Chunks int
	Bytes  int64
	// Acks counts acknowledgement watermarks sent back to the sender.
	Acks int
	// Nacks counts rejections sent to the sender (at most one: a
	// rejection ends the transfer).
	Nacks int
}

// Reader reassembles a chunked snapshot stream: it verifies each chunk's
// CRC and sequence number, acknowledges progress every Config.AckEvery
// chunks, and on FIN verifies the whole-stream checksum before confirming
// with DONE. Chunks are delivered strictly in order through Next, so
// restoration can consume the stream incrementally while later chunks are
// still in flight. The first damaged chunk, corrupt frame, or transport
// failure ends the transfer with an error.
type Reader struct {
	cfg Config
	t   link.Transport

	nextSeq uint32
	crc     uint32
	bytes   int64
	eof     bool

	stats ReaderStats
}

// NewReader starts receiving a streamed transfer from t.
func NewReader(t link.Transport, cfg Config) *Reader {
	return &Reader{cfg: cfg.withDefaults(), t: t}
}

// Stats returns the transfer statistics so far.
func (r *Reader) Stats() ReaderStats { return r.stats }

// reject ends the transfer on a damaged stream: it tells the sender with
// a best-effort NACK (the sender then fails with ErrVerify too, instead of
// a bare transport error), records the event, and returns an error
// wrapping ErrVerify.
func (r *Reader) reject(format string, args ...any) error {
	why := fmt.Sprintf(format, args...)
	r.stats.Nacks++
	mRxNacks.Inc()
	r.cfg.Recorder.Record("stream.nack", "%s", why)
	_ = r.t.Send(marshalSeq(msgNack, r.nextSeq)) // best effort: the transfer is over either way
	return fmt.Errorf("%w: %s", ErrVerify, why)
}

// Next returns the payload of the next in-order chunk, or io.EOF once the
// stream completed and was verified. The returned slice is owned by the
// caller.
func (r *Reader) Next() ([]byte, error) {
	if r.eof {
		return nil, io.EOF
	}
	raw, err := r.t.Recv()
	if err != nil {
		if errors.Is(err, link.ErrChecksum) {
			return nil, r.reject("frame checksum failed at chunk %d", r.nextSeq)
		}
		return nil, fmt.Errorf("stream: transport failed mid-stream (chunk %d): %w", r.nextSeq, err)
	}
	m, err := parseMessage(raw)
	if err != nil {
		return nil, err
	}
	switch m.typ {
	case msgData:
		if m.seq != r.nextSeq {
			return nil, r.reject("chunk %d arrived, receiver needs %d", m.seq, r.nextSeq)
		}
		if crc32.ChecksumIEEE(m.payload) != m.crc {
			return nil, r.reject("chunk %d payload crc mismatch", m.seq)
		}
		r.nextSeq++
		r.crc = crc32.Update(r.crc, crc32.IEEETable, m.payload)
		r.bytes += int64(len(m.payload))
		r.stats.Chunks++
		r.stats.Bytes = r.bytes
		if int(r.nextSeq)%r.cfg.AckEvery == 0 {
			r.stats.Acks++
			if err := r.t.Send(marshalSeq(msgAck, r.nextSeq)); err != nil {
				return nil, fmt.Errorf("stream: transport failed mid-stream (ack %d): %w", r.nextSeq, err)
			}
		}
		out := make([]byte, len(m.payload))
		copy(out, m.payload)
		return out, nil
	case msgFin:
		if m.seq != r.nextSeq {
			return nil, r.reject("fin declares %d chunks, receiver holds %d", m.seq, r.nextSeq)
		}
		if m.bytes != uint64(r.bytes) || m.crc != r.crc {
			return nil, r.reject("got %d bytes crc %08x, sender declared %d bytes crc %08x",
				r.bytes, r.crc, m.bytes, m.crc)
		}
		if err := r.t.Send(marshalDone(uint64(r.bytes))); err != nil {
			return nil, fmt.Errorf("stream: done send: %w", err)
		}
		r.eof = true
		r.stats.flush()
		return nil, io.EOF
	default:
		return nil, fmt.Errorf("%w: unexpected %d message from sender", ErrProtocol, m.typ)
	}
}

// ReadAll drains the stream into one buffer — the non-incremental
// convenience used when restoration wants the whole snapshot.
func (r *Reader) ReadAll() ([]byte, error) {
	var out []byte
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p...)
	}
}
