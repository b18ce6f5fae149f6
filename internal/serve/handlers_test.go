package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	twohot "twohot"
)

func httpServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func submitHTTP(t *testing.T, ts *httptest.Server, tenant string, cfg twohot.Config) Info {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/api/sims", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

type listResponse struct {
	Sims    []Info `json:"sims"`
	Page    int    `json:"page"`
	PerPage int    `json:"perPage"`
	Total   int    `json:"total"`
}

// TestHandlersPaginationAndNotFound drives the listing the way Snippet 2
// specifies: 1-based pages, perPage default 50 capped at 200, a stable total,
// and clean 404s for unknown resources.
func TestHandlersPaginationAndNotFound(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1, QueueCap: 16})
	ts := httpServer(t, s)

	// Hold the single slot so the listing is stable while we page.
	holder := submitHTTP(t, ts, "alfa", testConfig("hold", 500))
	waitState(t, s, holder.ID, StateRunning, 30*time.Second)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submitHTTP(t, ts, "alfa", testConfig("page", 2)).ID)
	}

	var page1 listResponse
	getJSON(t, ts.URL+"/api/sims?page=1&perPage=2", &page1)
	if page1.Total != 5 || len(page1.Sims) != 2 || page1.PerPage != 2 {
		t.Fatalf("page 1: got %d sims of total %d perPage %d, want 2 of 5 per 2", len(page1.Sims), page1.Total, page1.PerPage)
	}
	var page3 listResponse
	getJSON(t, ts.URL+"/api/sims?page=3&perPage=2", &page3)
	if len(page3.Sims) != 1 {
		t.Fatalf("page 3 has %d sims, want the 1 remainder", len(page3.Sims))
	}
	var beyond listResponse
	getJSON(t, ts.URL+"/api/sims?page=9&perPage=2", &beyond)
	if len(beyond.Sims) != 0 {
		t.Fatalf("page beyond the end returned %d sims", len(beyond.Sims))
	}
	var capped listResponse
	getJSON(t, ts.URL+"/api/sims?perPage=9999", &capped)
	if capped.PerPage != 200 {
		t.Fatalf("perPage=9999 served %d, want the 200 cap", capped.PerPage)
	}
	var queuedOnly listResponse
	getJSON(t, ts.URL+"/api/sims?state=queued", &queuedOnly)
	if len(queuedOnly.Sims) != 4 {
		t.Fatalf("state=queued filter returned %d sims, want 4", len(queuedOnly.Sims))
	}

	for _, url := range []string{
		ts.URL + "/api/sims/s-999999",
		ts.URL + "/api/sims/s-999999/stats",
		ts.URL + "/api/sims/s-999999/catalogs",
		ts.URL + "/api/sims/s-999999/events",
	} {
		if resp := getJSON(t, url, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s returned %d, want 404", url, resp.StatusCode)
		}
	}

	// Drain.
	for _, id := range append(ids, holder.ID) {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandlersBackpressure429 pins the HTTP face of the bounded queue: 429
// with a Retry-After header.
func TestHandlersBackpressure429(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1, QueueCap: 1})
	ts := httpServer(t, s)
	holder := submitHTTP(t, ts, "alfa", testConfig("hold", 500))
	waitState(t, s, holder.ID, StateRunning, 30*time.Second)
	queued := submitHTTP(t, ts, "alfa", testConfig("q", 2))

	body, _ := json.Marshal(testConfig("q", 2))
	req, _ := http.NewRequest("POST", ts.URL+"/api/sims", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "alfa")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	for _, id := range []string{holder.ID, queued.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandlersTenantIsolationAndDelete pins the namespacing contract: two
// tenants submitting the SAME simulation name never share artifacts, and
// deleting one removes exactly its directory.
func TestHandlersTenantIsolationAndDelete(t *testing.T) {
	root := t.TempDir()
	s := newTestServer(t, Options{Dir: root, PoolWorkers: 2, QueueCap: 8})
	ts := httpServer(t, s)

	a := submitHTTP(t, ts, "alfa", testConfig("samename", 2))
	b := submitHTTP(t, ts, "bravo", testConfig("samename", 2))
	waitState(t, s, a.ID, StateCompleted, 60*time.Second)
	waitState(t, s, b.ID, StateCompleted, 60*time.Second)

	aFinal := filepath.Join(root, "alfa", a.ID, "samename-final.sdf")
	bFinal := filepath.Join(root, "bravo", b.ID, "samename-final.sdf")
	for _, p := range []string{aFinal, bFinal} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("final artifact missing: %v", err)
		}
	}

	// Delete tenant alfa's sim; bravo's identically-named artifacts survive.
	req, _ := http.NewRequest("DELETE", ts.URL+"/api/sims/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete returned %d, want 204", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(root, "alfa", a.ID)); !os.IsNotExist(err) {
		t.Fatal("deleted simulation's directory still exists")
	}
	if _, err := os.Stat(bFinal); err != nil {
		t.Fatalf("delete removed the other tenant's artifact: %v", err)
	}
	if resp := getJSON(t, ts.URL+"/api/sims/"+a.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted sim still served: %d", resp.StatusCode)
	}
	// Running/queued sims refuse deletion (409) — exercised via a fresh run.
	c := submitHTTP(t, ts, "alfa", testConfig("busy", 500))
	waitState(t, s, c.ID, StateRunning, 30*time.Second)
	req, _ = http.NewRequest("DELETE", ts.URL+"/api/sims/"+c.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("deleting a running sim returned %d, want 409", resp.StatusCode)
	}
	if _, err := s.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHandlersCatalogsAndEvents runs a simulation with a scheduled end-of-run
// analysis and checks both diagnostics surfaces: the catalog endpoints and
// the SSE stream (state → step… → analysis → done).
func TestHandlersCatalogsAndEvents(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1, QueueCap: 4})
	ts := httpServer(t, s)
	cfg := testConfig("cat", 3)
	cfg.Analysis.AtEnd = true
	cfg.Analysis.MinMembers = 1
	info := submitHTTP(t, ts, "alfa", cfg)

	// Subscribe before completion so the stream carries the run.
	resp, err := http.Get(ts.URL + "/api/sims/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var steps, analyses, dones int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: step"):
			steps++
		case strings.HasPrefix(line, "event: analysis"):
			analyses++
		case strings.HasPrefix(line, "event: done"):
			dones++
		}
	}
	if steps == 0 || analyses != 1 || dones != 1 {
		t.Fatalf("stream carried %d step, %d analysis, %d done events; want >0, 1, 1", steps, analyses, dones)
	}

	waitState(t, s, info.ID, StateCompleted, 60*time.Second)
	var cats struct {
		Catalogs []CatalogEntry `json:"catalogs"`
	}
	getJSON(t, ts.URL+"/api/sims/"+info.ID+"/catalogs", &cats)
	if len(cats.Catalogs) != 1 || cats.Catalogs[0].Label != "final" {
		t.Fatalf("catalogs listing %+v, want exactly the end-of-run catalog", cats.Catalogs)
	}
	var catalog map[string]any
	if resp := getJSON(t, ts.URL+"/api/sims/"+info.ID+"/catalogs/final", &catalog); resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog fetch returned %d", resp.StatusCode)
	}
	if catalog["name"] != "cat" {
		t.Fatalf("catalog payload lacks the simulation name: %v", catalog["name"])
	}
	// Traversal attempts bounce off the label validation.  A literal ".."
	// never reaches the handler (ServeMux cleans the path into a redirect);
	// escaped forms do reach it with the decoded value, and must be refused.
	for _, label := range []string{"%2e%2e", "..%2fescape", "a%2fb"} {
		resp, err := http.Get(ts.URL + "/api/sims/" + info.ID + "/catalogs/" + label)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("catalog label %q served", label)
		}
	}

	// Stats endpoint reflects the finished run.
	var st struct {
		ID    string `json:"id"`
		State State  `json:"state"`
		Stats
	}
	getJSON(t, ts.URL+"/api/sims/"+info.ID+"/stats", &st)
	if st.State != StateCompleted || st.Step != cfg.NSteps || st.Particles != 6*6*6 {
		t.Fatalf("stats %+v, want completed at step %d with %d particles", st, cfg.NSteps, 6*6*6)
	}
	if st.Kinetic <= 0 {
		t.Fatal("stats carry no kinetic energy tally")
	}
	var srv ServerStats
	getJSON(t, ts.URL+"/api/stats", &srv)
	if srv.PoolWorkers != 1 || srv.Sims[StateCompleted] != 1 {
		t.Fatalf("server stats %+v", srv)
	}
}

// TestHandlersRejectBadSubmissions covers the 400 face of the submission
// gates.
func TestHandlersRejectBadSubmissions(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1})
	ts := httpServer(t, s)
	post := func(tenant, body string) int {
		req, _ := http.NewRequest("POST", ts.URL+"/api/sims", strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("alfa", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad JSON returned %d", code)
	}
	if code := post("../up", `{}`); code != http.StatusBadRequest {
		t.Fatalf("bad tenant returned %d", code)
	}
	cfg := testConfig("x", 2)
	cfg.Name = "../../escape"
	body, _ := json.Marshal(cfg)
	if code := post("alfa", string(body)); code != http.StatusBadRequest {
		t.Fatalf("path-escaping name returned %d", code)
	}
	if code := post("alfa", `{"unknown_field": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown config field returned %d", code)
	}
	if code := post("alfa", `{"n_grid": 8} {"n_grid": 64, "bogus": 1} trailing garbage`); code != http.StatusBadRequest {
		t.Fatalf("content after the config object returned %d", code)
	}
	// Configurations that used to be admitted and then panic in the runner.
	for _, body := range []string{
		`{"lattice_order": 7}`,
		`{"order": 8, "lattice_order": 3}`,
		`{"solver": "treepm", "pm_grid": -4}`,
		`{"z_final": -1}`,
	} {
		if code := post("alfa", body); code != http.StatusBadRequest {
			t.Errorf("submission %s returned %d", body, code)
		}
	}
}

// TestHandlersSubmitDecodesLikeLoadConfig pins that the submit handler
// decodes with twohot.DecodeConfig, the decoder LoadConfig reads files
// through: the stored Config is what DecodeConfig makes of the same bytes.
// The decoder's own rules live in the root package's
// TestLoadConfigLayersOverDefaults.
func TestHandlersSubmitDecodesLikeLoadConfig(t *testing.T) {
	const doc = `{"name":"x","box_size":32,"n_grid":8,"n_steps":2}`
	want, err := twohot.DecodeConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{PoolWorkers: 1})
	resp, err := http.Post(httpServer(t, s).URL+"/api/sims", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info Info
	if resp.StatusCode != http.StatusCreated || json.NewDecoder(resp.Body).Decode(&info) != nil {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	s.mu.Lock()
	got := s.sims[info.ID].cfg
	s.mu.Unlock()
	want.OutputDir = got.OutputDir // the server's per-job artifact directory
	if !reflect.DeepEqual(got, want) {
		t.Errorf("POST body and DecodeConfig disagree:\n got %+v\nwant %+v", got, want)
	}
}
