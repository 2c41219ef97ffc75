package vcodec

import (
	"bytes"
	"fmt"
	"testing"

	"livo/internal/frame"
)

// FuzzDecode hardens the bitstream parser: arbitrary bytes must yield an
// error (ErrCorrupt/ErrStaleReference for malformed or out-of-chain input),
// never a panic or an unbounded allocation. Each input is decoded both
// against a warm reference (delta position) and on a fresh decoder (key
// position) so both header paths see the data. At the delta position a
// twin decoder takes the same input through DecodeColorInto, which must
// return the same error, or the pixels Decode+ToColorInto produce.
func FuzzDecode(f *testing.F) {
	cfg := ColorConfig(32, 32)
	cfg.GOP = 4
	enc, err := NewEncoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for i := 0; i < 5; i++ {
		pkt, err := enc.EncodeQP(FromColor(synthColor(32, 32, i)), 20)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, pkt.Data)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add(seeds[1][:len(seeds[1])/2])
	key := seeds[0]

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := frame.NewColorImage(cfg.Width, cfg.Height)
		if _, err := dec.Decode(&Packet{Data: key}); err != nil {
			t.Fatalf("valid key frame rejected: %v", err)
		}
		if err := twin.DecodeColorInto(&Packet{Data: key}, got); err != nil {
			t.Fatalf("valid key frame rejected by DecodeColorInto: %v", err)
		}
		fr, err := dec.Decode(&Packet{Data: data})
		twinErr := twin.DecodeColorInto(&Packet{Data: data}, got)
		if fmt.Sprint(err) != fmt.Sprint(twinErr) {
			t.Fatalf("Decode error %v, DecodeColorInto error %v", err, twinErr)
		}
		if err == nil {
			// Accepted input must have advanced the reference.
			if !dec.HasReference() {
				t.Fatal("decode succeeded without establishing a reference")
			}
			want := frame.NewColorImage(cfg.Width, cfg.Height)
			fr.ToColorInto(want)
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatal("DecodeColorInto pixels differ from Decode+ToColorInto")
			}
		}
		fresh, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = fresh.Decode(&Packet{Data: data})
	})
}
