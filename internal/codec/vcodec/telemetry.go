package vcodec

import "livo/internal/telemetry"

// telDecodeErrors counts packets Decode rejected (DESIGN.md §6). It is the
// codec's only metric: encode and decode time are the frame ledger's
// stages, and encoded bytes are the sender's.
var telDecodeErrors = telemetry.Default.Counter("livo_vcodec_decode_errors_total")

// decodePicture runs the decode core and counts its failures; Decode,
// DecodeColorInto and DecodeLuma all decode through it.
func (d *Decoder) decodePicture(pkt *Packet) (*codedPicture, error) {
	cp, err := d.decode(pkt)
	if err != nil {
		telDecodeErrors.Inc()
		return nil, err
	}
	return cp, nil
}
