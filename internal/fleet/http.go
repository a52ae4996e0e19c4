package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"hprefetch/internal/service"
)

// Handler returns the coordinator's HTTP API:
//
//	POST /v1/sweeps           submit a sweep (SweepSpec body)
//	GET  /v1/sweeps           list sweeps (newest first)
//	GET  /v1/sweeps/{id}      poll a sweep (?wait=5s long-polls)
//	GET  /healthz             coordinator + per-backend breaker state
//	GET  /metrics             fleet counters (JSON)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", c.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", c.handleListSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", c.handlePollSweep)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := service.DecodeRequest(data, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	sw, err := c.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	writeJSON(w, http.StatusAccepted, sw.View())
}

func (c *Coordinator) handlePollSweep(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	sw, ok := c.sweeps[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration %q: %v", waitSpec, err)
			return
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		select {
		case <-sw.Done():
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, sw.View())
}

func (c *Coordinator) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	views := make([]SweepView, 0, len(c.order))
	for i := len(c.order) - 1; i >= 0; i-- {
		views = append(views, c.sweeps[c.order[i]].View())
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": views})
}

// BackendHealth snapshots every backend's breaker.
func (c *Coordinator) BackendHealth() map[string]service.BreakerStatus {
	out := map[string]service.BreakerStatus{}
	for b, br := range c.health {
		out[b] = br.Status()
	}
	return out
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"role":      "coordinator",
		"backends":  c.BackendHealth(),
		"journal":   c.journal != nil,
		"uptime_ms": time.Since(c.start).Milliseconds(),
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.metrics.Snapshot(c.BackendHealth()))
}
