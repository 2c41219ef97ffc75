package livo

import (
	"encoding/binary"
	"fmt"
	"math"

	"livo/internal/geom"
	"livo/internal/transport"
)

// Feedback messages ride the reverse path of a live session: viewer poses
// (for frustum prediction, §3.4), receiver bandwidth estimates (REMB-style,
// §3.3), NACKs and PLIs (§A.1), and RTT probes. The wire-type values
// (transport.FB*) and the REMB/NACK codecs live in internal/transport so
// the relay core can aggregate feedback without importing this package;
// only the two codecs the relay never opens — pose and ping — live here.

// marshalPose encodes a timestamped viewer pose.
func marshalPose(t float64, p geom.Pose) []byte {
	out := make([]byte, 1, 1+8*8)
	out[0] = transport.FBPose
	for _, v := range []float64{t, p.Position.X, p.Position.Y, p.Position.Z,
		p.Rotation.W, p.Rotation.X, p.Rotation.Y, p.Rotation.Z} {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func unmarshalPose(b []byte) (t float64, p geom.Pose, err error) {
	if len(b) < 1+8*8 {
		return 0, geom.Pose{}, fmt.Errorf("livo: short pose feedback")
	}
	var f [8]float64
	for i := range f {
		f[i] = math.Float64frombits(binary.BigEndian.Uint64(b[1+8*i:]))
	}
	return f[0], geom.Pose{
		Position: geom.V3(f[1], f[2], f[3]),
		Rotation: geom.Quat{W: f[4], X: f[5], Y: f[6], Z: f[7]}.Normalize(),
	}, nil
}

// marshalPing/Pong carry a sender timestamp for application-level RTT.
func marshalPing(t float64, typ byte) []byte {
	out := make([]byte, 1, 9)
	out[0] = typ
	return binary.BigEndian.AppendUint64(out, math.Float64bits(t))
}

func unmarshalPing(b []byte) (float64, error) {
	if len(b) < 9 {
		return 0, fmt.Errorf("livo: short ping")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b[1:])), nil
}
