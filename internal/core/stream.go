package core

// Streamed migration: instead of sealing the whole captured state into one
// envelope and pushing it through a single blocking Send (the stop-and-copy
// path of Send/ReceiveAndRestore), the snapshot flows through the
// internal/stream chunk layer while the MSRM collector is still producing
// it, so collection time and wire time overlap.
//
// The streamed envelope reuses the monolithic header fields but drops the
// up-front payload length and checksum — the stream layer carries a CRC per
// chunk and a whole-stream CRC in its FIN frame, verified before the
// receiver confirms. Restoration still verifies the program digest before
// touching the state.

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/xdr"
)

// putStreamHeader encodes the streamed envelope header — the shared
// envelope header at VersionStream, with nothing after it but the state.
func (e *Engine) putStreamHeader(enc *xdr.Encoder, src *arch.Machine) {
	putHeader(enc, VersionStream, src.Name, e.Digest())
}

// OpenStream verifies a reassembled streamed envelope and returns the raw
// state and the source machine name.
func (e *Engine) OpenStream(payload []byte) (state []byte, srcName string, err error) {
	dec := xdr.NewDecoder(payload)
	h, err := e.openHeader(dec, VersionStream)
	if err != nil {
		return nil, "", err
	}
	return payload[dec.Offset():], h.srcName, nil
}

// SendStream collects the state of p (stopped at its migration point) and
// transmits it through sw, overlapping the depth-first MSR traversal with
// transmission: completed prefixes of the encoded snapshot are handed to
// the chunk writer as collection proceeds, bounded by the writer's
// transmit window. chunkSize is the flush threshold and should match the
// writer's Config.ChunkSize.
//
// The returned Timing reports the whole overlapped phase as Tx; the
// collection component is available separately via p.CaptureStats().
func (e *Engine) SendStream(sw *stream.Writer, src *arch.Machine, p *vm.Process, chunkSize int) (Timing, error) {
	start := time.Now()
	enc := xdr.NewEncoder(chunkSize + 1024)
	enc.SetSink(chunkSize, func(b []byte) error {
		_, err := sw.Write(b)
		return err
	})
	e.putStreamHeader(enc, src)
	if err := p.CaptureTo(enc); err != nil {
		return Timing{}, closeAfterFailure(sw, "streamed", fmt.Errorf("core: streamed collection: %w", err))
	}
	if err := enc.FlushSink(); err != nil {
		return Timing{}, closeAfterFailure(sw, "streamed", fmt.Errorf("core: streamed transfer: %w", err))
	}
	if err := sw.Close(); err != nil {
		return Timing{}, fmt.Errorf("core: streamed transfer: %w", err)
	}
	return Timing{Tx: time.Since(start), Bytes: enc.Len()}, nil
}

// closeAfterFailure closes sw once its producer failed with err. When the
// writer itself failed — a dead transport, or the receiver rejecting the
// stream — that failure is the cause and is reported in place of err,
// whose chain holds whichever writer error the producer happened to see
// first: Close waits for the receiver's last word, so a rejection is
// reported as one even when a send failure raced it.
func closeAfterFailure(sw *stream.Writer, mode string, err error) error {
	if werr := sw.Close(); werr != nil {
		return fmt.Errorf("core: %s transfer: %w", mode, werr)
	}
	return err
}

// ReceiveAndRestoreStream reassembles a streamed envelope from r, verifies
// it, and restores the process on machine m.
func (e *Engine) ReceiveAndRestoreStream(r *stream.Reader, m *arch.Machine) (*vm.Process, Timing, error) {
	return e.ReceiveAndRestoreStreamObs(r, m, nil)
}

// ReceiveAndRestoreStreamObs is ReceiveAndRestoreStream recording the
// reassembly and restore phases as children of span (nil disables tracing).
func (e *Engine) ReceiveAndRestoreStreamObs(r *stream.Reader, m *arch.Machine, span *obs.Span) (*vm.Process, Timing, error) {
	rx := span.Child("transport")
	rxStart := time.Now()
	payload, err := r.ReadAll()
	mRxLat.Observe(time.Since(rxStart))
	rx.SetBytes(int64(len(payload)))
	rx.End()
	if err != nil {
		return nil, Timing{}, err
	}
	state, _, err := e.OpenStream(payload)
	if err != nil {
		return nil, Timing{}, err
	}
	start := time.Now()
	p, err := vm.RestoreProcessObs(e.Prog, m, state, span)
	if err != nil {
		return nil, Timing{}, err
	}
	restore := time.Since(start)
	mRestoreLat.Observe(restore)
	return p, Timing{Restore: restore, Bytes: len(payload)}, nil
}
