package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	twohot "twohot"
)

// Handler returns the server's REST surface (shape per SNIPPETS.md
// Snippet 2: a paginated resource with per-item /stats):
//
//	POST   /api/sims                      submit a twohot.Config (tenant from X-Tenant)
//	GET    /api/sims?page=&perPage=       paginated listing (also ?tenant=, ?state=)
//	GET    /api/sims/{id}                 one simulation
//	GET    /api/sims/{id}/stats           live step/redshift/energy/rung stats
//	GET    /api/sims/{id}/catalogs        list in-situ analysis catalogs
//	GET    /api/sims/{id}/catalogs/{label} fetch one catalog (JSON)
//	GET    /api/sims/{id}/events          SSE stream (state/step/analysis events)
//	POST   /api/sims/{id}/suspend         checkpoint at the next step boundary
//	POST   /api/sims/{id}/resume          re-enqueue a suspended simulation
//	POST   /api/sims/{id}/cancel          stop without a checkpoint
//	DELETE /api/sims/{id}                 remove a stopped simulation + artifacts
//	GET    /api/stats                     server-wide pool/queue view
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/sims", s.handleSubmit)
	mux.HandleFunc("GET /api/sims", s.handleList)
	mux.HandleFunc("GET /api/sims/{id}", s.handleGet)
	mux.HandleFunc("GET /api/sims/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /api/sims/{id}/catalogs", s.handleCatalogs)
	mux.HandleFunc("GET /api/sims/{id}/catalogs/{label}", s.handleCatalog)
	mux.HandleFunc("GET /api/sims/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /api/sims/{id}/suspend", s.lifecycle(s.Suspend))
	mux.HandleFunc("POST /api/sims/{id}/resume", s.lifecycle(s.Resume))
	mux.HandleFunc("POST /api/sims/{id}/cancel", s.lifecycle(s.Cancel))
	mux.HandleFunc("DELETE /api/sims/{id}", s.handleDelete)
	mux.HandleFunc("GET /api/stats", s.handleServerStats)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// fail maps the server's error values onto HTTP semantics: unknown id 404,
// full queue 429 + Retry-After (backpressure, the client should resubmit),
// lifecycle misuse 409, everything else a plain 400.
func fail(w http.ResponseWriter, err error) {
	var conflict conflictError
	switch {
	case errors.Is(err, errNotFound):
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
	case errors.As(err, &conflict):
		writeJSON(w, http.StatusConflict, apiError{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	// Submissions decode exactly like a config file: layered over the
	// defaults (a client states only what differs), unknown keys and trailing
	// content rejected.
	cfg, err := twohot.DecodeConfig(r.Body)
	if err != nil {
		fail(w, fmt.Errorf("serve: bad config: %w", err))
		return
	}
	info, err := s.Submit(tenant, cfg)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	page, _ := strconv.Atoi(q.Get("page"))
	perPage, _ := strconv.Atoi(q.Get("perPage"))
	sims, pageNum, per, total := s.List(q.Get("tenant"), State(q.Get("state")), page, perPage)
	writeJSON(w, http.StatusOK, struct {
		Sims    []Info `json:"sims"`
		Page    int    `json:"page"`
		PerPage int    `json:"perPage"`
		Total   int    `json:"total"`
	}{sims, pageNum, per, total})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Get(r.PathValue("id"))
	if !ok {
		fail(w, errNotFound)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Get(r.PathValue("id"))
	if !ok {
		fail(w, errNotFound)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID    string `json:"id"`
		State State  `json:"state"`
		Stats
	}{info.ID, info.State, info.Stats})
}

// lifecycle adapts Suspend/Resume/Cancel to a handler; all three answer 202
// (the state machine moves asynchronously, poll or stream to observe it).
func (s *Server) lifecycle(op func(id string) (Info, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info, err := op(r.PathValue("id"))
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, info)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("id")); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// CatalogEntry is one row of the catalogs listing.
type CatalogEntry struct {
	Label string `json:"label"`
	File  string `json:"file"`
}

// catalogDir resolves a sim's artifact directory and catalog name prefix.
func (s *Server) catalogDir(id string) (dir, prefix string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.sims[id]
	if !ok {
		return "", "", errNotFound
	}
	return sm.dir, sm.cfg.Name + "-analysis-", nil
}

func (s *Server) handleCatalogs(w http.ResponseWriter, r *http.Request) {
	dir, prefix, err := s.catalogDir(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	entries, _ := os.ReadDir(dir) // no dir yet = no catalogs yet
	cats := []CatalogEntry{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		cats = append(cats, CatalogEntry{
			Label: strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".json"),
			File:  name,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Catalogs []CatalogEntry `json:"catalogs"`
	}{cats})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	label := r.PathValue("label")
	if !safeName(label) {
		fail(w, fmt.Errorf("serve: invalid catalog label %q", label))
		return
	}
	dir, prefix, err := s.catalogDir(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	data, err := os.ReadFile(filepath.Join(dir, prefix+label+".json"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{fmt.Sprintf("serve: no catalog %q", label)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleEvents is the SSE stream: an initial "state" event with the current
// Info, then every broker event for the simulation until the topic finishes
// (terminal state), the client disconnects, or the subscriber is dropped for
// falling behind.  The stream ends with an explicit "done" event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.Get(id)
	if !ok {
		fail(w, errNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{"serve: streaming unsupported"})
		return
	}
	ch, cancelSub := s.broker.subscribe(id)
	defer cancelSub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	snap, _ := json.Marshal(info)
	fmt.Fprintf(w, "event: state\ndata: %s\n\n", snap)
	fl.Flush()

	for {
		select {
		case ev, open := <-ch:
			if !open {
				fmt.Fprint(w, "event: done\ndata: {}\n\n")
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, ev.Data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
