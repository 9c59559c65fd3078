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
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

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

// alertLine is the JSON line a confirmed global violation prints on stdout
// in cluster and shard mode. The fields are declared in the order
// encoding/json sorts map keys into, so the bytes are those of the
// map[string]any the line used to be encoded from.
type alertLine struct {
	At    string    `json:"at"`
	Kind  string    `json:"kind"`
	Shard string    `json:"shard,omitempty"`
	Task  string    `json:"task"`
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// alertPrinter is the cluster modes' OnAlert: it counts confirmed global
// violations and serialises their lines from concurrent coordinators onto
// one writer. shard is empty in cluster mode.
type alertPrinter struct {
	mu    sync.Mutex
	enc   *json.Encoder
	shard string
	count *volley.Counter
}

func newAlertPrinter(w io.Writer, shard string, count *volley.Counter) *alertPrinter {
	return &alertPrinter{enc: json.NewEncoder(w), shard: shard, count: count}
}

// print writes one alert line, stamped with the wall clock under the lock so
// lines leave in timestamp order; now is the virtual time of the tick that
// confirmed the violation.
func (p *alertPrinter) print(task string, now time.Duration, total float64) {
	p.count.Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.enc.Encode(alertLine{
		At: now.String(), Kind: "alert", Shard: p.shard, Task: task, Time: time.Now(), Value: total,
	})
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
