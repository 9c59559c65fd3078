// Alert plumbing shared by all three volleyd modes: the JSONL file sinks
// (-events-file decision trace, -alert-history lifecycle history) that are
// flushed and closed on graceful shutdown, the stdout alert line, and the
// operator HTTP surface (GET /alerts, POST /alerts/{id}/ack, POST
// /alerts/{id}/resolve).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"volley"
)

// writeJSON answers 200 with v as the JSON body.
func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSONStatus(w, code, map[string]string{"error": err.Error()})
}

// alertPrinter is the cluster modes' OnAlert: it counts confirmed global
// violations and serialises their lines from concurrent coordinators onto
// one writer, one Write per line. shard is empty in cluster mode.
type alertPrinter struct {
	mu    sync.Mutex
	w     io.Writer
	line  []byte // the line being written; reused
	shard string
	count *volley.Counter
}

func newAlertPrinter(w io.Writer, shard string, count *volley.Counter) *alertPrinter {
	return &alertPrinter{w: w, shard: shard, count: count}
}

// print writes one alert line, stamped with the wall clock under the lock so
// lines leave in timestamp order; now is the virtual time of the tick that
// confirmed the violation.
func (p *alertPrinter) print(task string, now time.Duration, total float64) {
	p.count.Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.line = appendAlertLine(p.line[:0], p.shard, task, now, time.Now(), total)
	_, _ = p.w.Write(p.line) // stdout gone: nobody is left to tell
}

// appendAlertLine appends the JSON line a confirmed global violation prints
// on stdout in cluster and shard mode (DESIGN.md §14): the bytes json.Encoder
// writes for a struct of these fields in this order, which is the order it
// sorts the keys of a map into. A total that is not finite, which JSON
// cannot carry as a number, prints as null.
func appendAlertLine(b []byte, shard, task string, now time.Duration, wall time.Time, total float64) []byte {
	b = append(b, `{"at":"`...)
	b = append(b, now.String()...) // digits, '.', unit letters: nothing to escape
	b = append(b, `","kind":"alert"`...)
	if shard != "" {
		b = append(b, `,"shard":`...)
		b = appendJSONString(b, shard)
	}
	b = append(b, `,"task":`...)
	b = appendJSONString(b, task)
	b = append(b, `,"time":"`...)
	b = wall.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","value":`...)
	b = appendJSONFloat(b, total)
	return append(b, "}\n"...)
}

// appendJSONString appends s quoted and escaped as encoding/json does with
// HTML escaping on: control characters, '"', '\\', '<', '>', '&', U+2028 and
// U+2029 escaped, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64 — the shortest
// digits that read back as f, an exponent only below 1e-6 and from 1e21 up,
// and that exponent without a padding zero — or null if f is not finite.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

// fileSink is an append-only buffered JSONL file. Writes go through the
// buffer; Close flushes the tail and closes the file, so the last lines of
// a run survive SIGTERM. A nil *fileSink writes nowhere and closes clean.
type fileSink struct {
	f *os.File
	w *bufio.Writer
}

// openFileSink opens (creating, appending) path. An empty path returns a
// nil sink, which every method tolerates.
func openFileSink(path string) (*fileSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileSink{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *fileSink) Write(p []byte) (int, error) {
	if s == nil {
		return len(p), nil
	}
	return s.w.Write(p)
}

// Close flushes buffered lines and closes the file.
func (s *fileSink) Close() error {
	if s == nil {
		return nil
	}
	return errors.Join(s.w.Flush(), s.f.Close())
}

// registerAlertRoutes wires the operator alert API onto mux. now supplies
// the mode's clock (wall-based in single mode, virtual in the cluster
// modes) so ack/resolve transitions carry timestamps in the same time base
// as raises.
func registerAlertRoutes(mux *http.ServeMux, reg *volley.AlertRegistry, now func() time.Duration) {
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, reg.List()) })
	op := func(do func(id uint64, at time.Duration, actor string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad alert id: %w", err))
				return
			}
			if err := do(id, now(), r.URL.Query().Get("actor")); err != nil {
				switch {
				case errors.Is(err, volley.ErrAlertNotFound):
					httpError(w, http.StatusNotFound, err)
				case errors.Is(err, volley.ErrAlertBadState):
					httpError(w, http.StatusConflict, err)
				default:
					httpError(w, http.StatusInternalServerError, err)
				}
				return
			}
			a, ok := reg.Get(id)
			if !ok {
				httpError(w, http.StatusNotFound, volley.ErrAlertNotFound)
				return
			}
			writeJSON(w, a)
		}
	}
	mux.HandleFunc("POST /alerts/{id}/ack", op(func(id uint64, at time.Duration, actor string) error {
		if actor == "" {
			actor = "operator"
		}
		return reg.Ack(id, at, actor)
	}))
	mux.HandleFunc("POST /alerts/{id}/resolve", op(reg.Resolve))
}
