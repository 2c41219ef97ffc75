package vcodec

import "livo/internal/telemetry"

// telDecodeErrors counts packets Decode rejected (DESIGN.md §6). It is the
// codec's only metric: encode and decode time are the frame ledger's
// stages, and encoded bytes are the sender's.
var telDecodeErrors = telemetry.Default.Counter("livo_vcodec_decode_errors_total")

// Decode reconstructs one frame from a packet. Malformed input returns an
// error wrapping ErrCorrupt; a delta frame that does not extend the
// decoder's current reference returns an error wrapping ErrStaleReference.
// Decoder state is only advanced on success, so a failed packet can be
// skipped and decoding resumed at the next key frame.
//
// The returned frame is owned by the decoder and overwritten by the next
// successful Decode call; Clone it to retain it across decodes.
func (d *Decoder) Decode(pkt *Packet) (*Frame, error) {
	f, err := d.decode(pkt)
	if err != nil {
		telDecodeErrors.Inc()
		return nil, err
	}
	return f, nil
}
