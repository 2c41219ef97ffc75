package frametrace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WriteTimelinesJSONL writes merged timelines one JSON object per line:
//
//	{"seq":12,"hops":{"capture":...,"encode_color":...},"e2e_ms":4.1}
//
// Hop times are nanoseconds on the ledgers' shared clock; e2e_ms
// is present when both capture and reconstruct were stamped.
func WriteTimelinesJSONL(w io.Writer, tls []FrameTimeline) error {
	for i := range tls {
		tl := &tls[i]
		if _, err := fmt.Fprintf(w, "{\"seq\":%d,\"hops\":{", tl.Seq); err != nil {
			return err
		}
		first := true
		for h := Hop(0); int(h) < NumHops; h++ {
			t, ok := tl.Get(h)
			if !ok {
				continue
			}
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(w, "%q:%d", h.String(), t); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
		if cap0, ok := tl.Get(HopCapture); ok {
			if rec, ok := tl.Get(HopReconstruct); ok {
				if _, err := fmt.Fprintf(w, ",\"e2e_ms\":%.3f", float64(rec-cap0)/1e6); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsJSONL writes up to n recent events one JSON object per
// line, oldest first. A frame drop's value is written as its "reason", a
// rung switch's as "from", "to" and "remb_bps"; other kinds keep the raw
// "val".
func WriteEventsJSONL(w io.Writer, r *EventRing, n int) error {
	for _, ev := range r.Recent(n) {
		var err error
		switch ev.Kind {
		case EvFrameDrop:
			_, err = fmt.Fprintf(w,
				"{\"event\":%q,\"reason\":%q,\"stream\":%d,\"seq\":%d,\"sub\":%d,\"t_ns\":%d}\n",
				ev.Kind.String(), DropReason(ev.Val).String(), ev.Stream, ev.Seq, ev.Sub, ev.TimeNs)
		case EvRungSwitch:
			from, to, remb := UnpackRungSwitch(ev.Val)
			_, err = fmt.Fprintf(w,
				"{\"event\":%q,\"from\":%d,\"to\":%d,\"remb_bps\":%d,\"stream\":%d,\"seq\":%d,\"sub\":%d,\"t_ns\":%d}\n",
				ev.Kind.String(), from, to, remb, ev.Stream, ev.Seq, ev.Sub, ev.TimeNs)
		default:
			_, err = fmt.Fprintf(w,
				"{\"event\":%q,\"stream\":%d,\"seq\":%d,\"sub\":%d,\"val\":%d,\"t_ns\":%d}\n",
				ev.Kind.String(), ev.Stream, ev.Seq, ev.Sub, ev.Val, ev.TimeNs)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// queryN parses ?n=COUNT with a default.
func queryN(r *http.Request, def int) int {
	if v := r.URL.Query().Get("n"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > 0 {
			return p
		}
	}
	return def
}

// merged is the retained window both handlers read: every stamp the
// ledgers (sharing one clock) still hold, merged into per-frame timelines
// that follow the subscriber named by ?sub= (any, when absent).
func merged(r *http.Request, ledgers []*Ledger) []FrameTimeline {
	sub := NoSub
	if v := r.URL.Query().Get("sub"); v != "" {
		if p, err := strconv.Atoi(v); err == nil {
			sub = int32(p)
		}
	}
	c := NewCollector()
	for _, l := range ledgers {
		c.Add(l)
	}
	return c.Merge(sub)
}

// FramesHandler serves the ledgers' retained window as JSONL timelines
// (?n= caps the number of frames, newest kept; ?sub= follows one
// subscriber through the per-subscriber hops). Intended to be mounted as
// /debugz/frames.
func FramesHandler(ledgers ...*Ledger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tls := merged(r, ledgers)
		if n := queryN(r, 64); len(tls) > n {
			tls = tls[len(tls)-n:]
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = WriteTimelinesJSONL(w, tls)
	})
}

// StagesHandler serves Decompose of the whole retained window as one
// JSON Report: per-stage count/p50/p99/mean, end-to-end, and the
// reconciliation of the two (?sub= as for FramesHandler). Intended to be
// mounted as /debugz/stages.
func StagesHandler(ledgers ...*Ledger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(Decompose(merged(r, ledgers)))
	})
}

// EventsHandler serves recent data-plane events as JSONL (?n=COUNT,
// default 256). Intended to be mounted as /debugz/events.
func EventsHandler(ring *EventRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = WriteEventsJSONL(w, ring, queryN(r, 256))
	})
}
