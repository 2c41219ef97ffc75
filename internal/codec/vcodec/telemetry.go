package vcodec

import (
	"time"

	"livo/internal/telemetry"
)

// Codec-level telemetry (frame-path observability, DESIGN.md §6). The
// handles resolve against telemetry.Default once at package init; each
// successful encode/decode costs one histogram observation (a few atomic
// ops against a ~hundreds-of-ms 4K encode; last measured registry-on vs
// registry-off delta −1.0%, i.e. noise — CHANGES.md PR 3).
var (
	telEncodeSeconds = telemetry.Default.Histogram("livo_vcodec_encode_seconds", telemetry.LatencyBuckets)
	telDecodeSeconds = telemetry.Default.Histogram("livo_vcodec_decode_seconds", telemetry.LatencyBuckets)
	telEncodedBytes  = telemetry.Default.Counter("livo_vcodec_encoded_bytes_total")
	telDecodeErrors  = telemetry.Default.Counter("livo_vcodec_decode_errors_total")
)

// Decode reconstructs one frame from a packet. Malformed input returns an
// error wrapping ErrCorrupt; a delta frame that does not extend the
// decoder's current reference returns an error wrapping ErrStaleReference.
// Decoder state is only advanced on success, so a failed packet can be
// skipped and decoding resumed at the next key frame.
//
// The returned frame is owned by the decoder and overwritten by the next
// successful Decode call; Clone it to retain it across decodes.
func (d *Decoder) Decode(pkt *Packet) (*Frame, error) {
	start := time.Now()
	f, err := d.decode(pkt)
	if err != nil {
		telDecodeErrors.Inc()
		return nil, err
	}
	telDecodeSeconds.ObserveDuration(time.Since(start))
	return f, nil
}
