package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"twohot"
	"twohot/internal/sdf"
	"twohot/internal/serve"
)

// The serve.burst traffic shape: a closed loop of two tenants, one client
// goroutine and one connection each.  A round is both tenants submitting a
// burst of burstJobs jobs at once, each suspending and resuming one of its
// jobs once it runs, and polling its paginated listing until the whole burst
// has completed; the next round starts when both are done.
const (
	serveTenants = 2
	burstJobs    = 8
	servePool    = 2 // pool slots; every job costs one
	pollEvery    = 10 * time.Millisecond
	roundTimeout = 90 * time.Second
)

// wallNow is time.Now without the monotonic reading, so client timestamps
// compare with the server's JSON-borne ones on one clock.
func wallNow() time.Time { return time.Now().Round(0) }

// serveJob is the client-side record of one job.
type serveJob struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Suspended bool   `json:"suspended_and_resumed"`
	CRC       string `json:"state_crc"`

	submitStart, submitEnd     time.Time
	created, started, finished time.Time
	suspendPost, suspendDone   time.Time
	resumePost, resumeStarted  time.Time
	state                      serve.State
	step                       int
	suspendSettled             bool
}

// serveRound is the record of one round over both tenants.
type serveRound struct {
	Seed        int64       `json:"seed"`
	WallS       float64     `json:"wall_s"`
	TurnaroundS []float64   `json:"turnaround_s"`
	Jobs        []*serveJob `json:"jobs"`
	start, end  time.Time
}

// serveHarness is one in-process server behind httptest plus client-side
// tallies.
type serveHarness struct {
	srv  *serve.Server
	ts   *httptest.Server
	dir  string
	http *http.Client

	mu        sync.Mutex
	rejected  int
	slotsHigh int
	heapPeak  uint64
	submitMs  []float64
}

// startServer boots a server rooted at dir, waits until /api/stats answers and
// runs one warm-up job to completion (the cold path of every lazily built
// piece, like the simulation workloads' cold solve).  The elapsed time is one
// setup_s sample.
func startServer(dir string, warm twohot.Config) (*serveHarness, float64, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Options{Dir: dir, PoolWorkers: servePool})
	if err != nil {
		return nil, 0, err
	}
	ts := httptest.NewServer(srv.Handler())
	h := &serveHarness{srv: srv, ts: ts, dir: dir, http: ts.Client()}
	if code, _, err := h.do("GET", "/api/stats", "warmup", nil); err != nil || code != http.StatusOK {
		h.close()
		return nil, 0, fmt.Errorf("GET /api/stats: status %d: %v", code, err)
	}
	job, err := h.submit("warmup", warm)
	if err == nil {
		err = h.await("warmup", []*serveJob{job})
	}
	if err != nil {
		h.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	return h, time.Since(t0).Seconds(), nil
}

func (h *serveHarness) close() {
	h.ts.Close()
	_ = h.srv.Close() // nothing is running; Close only waits for runners
	os.RemoveAll(h.dir)
}

func (h *serveHarness) do(method, path, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := h.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (h *serveHarness) submit(tenant string, cfg twohot.Config) (*serveJob, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	job := &serveJob{Tenant: tenant, submitStart: wallNow()}
	code, data, err := h.do("POST", "/api/sims", tenant, body)
	job.submitEnd = wallNow()
	if err != nil {
		return nil, err
	}
	if code == http.StatusTooManyRequests {
		h.mu.Lock()
		h.rejected++
		h.mu.Unlock()
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("submit answered %d: %s", code, data)
	}
	var info serve.Info
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, err
	}
	job.ID, job.created = info.ID, info.Created
	h.mu.Lock()
	h.submitMs = append(h.submitMs, job.submitEnd.Sub(job.submitStart).Seconds()*1e3)
	h.mu.Unlock()
	return job, nil
}

// list walks the tenant's paginated listing.
func (h *serveHarness) list(tenant string) (map[string]serve.Info, error) {
	out := map[string]serve.Info{}
	for page := 1; ; page++ {
		code, data, err := h.do("GET", fmt.Sprintf("/api/sims?tenant=%s&perPage=50&page=%d", tenant, page), tenant, nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("list page %d: status %d: %v", page, code, err)
		}
		var resp struct {
			Sims  []serve.Info `json:"sims"`
			Total int          `json:"total"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, err
		}
		for _, in := range resp.Sims {
			out[in.ID] = in
		}
		if len(resp.Sims) == 0 || len(out) >= resp.Total {
			return out, nil
		}
	}
}

// lifecycle POSTs suspend or resume; a 409 means the job left the expected
// state first (a benign race, reported as !ok).
func (h *serveHarness) lifecycle(job *serveJob, op string) (ok bool, err error) {
	code, data, err := h.do("POST", "/api/sims/"+job.ID+"/"+op, job.Tenant, nil)
	switch {
	case err != nil:
		return false, err
	case code == http.StatusAccepted:
		return true, nil
	case code == http.StatusConflict:
		return false, nil
	}
	return false, fmt.Errorf("%s %s answered %d: %s", op, job.ID, code, data)
}

// await polls the tenant's listing until every job has completed, suspending
// and resuming one job of the burst along the way (never the lone warm-up
// job).
func (h *serveHarness) await(tenant string, jobs []*serveJob) error {
	var chosen *serveJob
	deadline := time.Now().Add(roundTimeout)
	for polls := 0; ; polls++ {
		infos, err := h.list(tenant)
		if err != nil {
			return err
		}
		if st := h.srv.Stats(); st.UsedWorkers > 0 || polls%32 == 0 {
			h.sample(st.UsedWorkers, polls%32 == 0)
		}
		done := 0
		for _, job := range jobs {
			in, ok := infos[job.ID]
			if !ok {
				return fmt.Errorf("job %s vanished from the listing", job.ID)
			}
			job.state, job.step = in.State, in.Stats.Step
			if in.Started != nil {
				if job.started.IsZero() {
					job.started = *in.Started
				}
				if !job.resumePost.IsZero() && job.resumeStarted.IsZero() && in.Started.After(job.resumePost) {
					job.resumeStarted = *in.Started
				}
			}
			switch in.State {
			case serve.StateCompleted:
				job.finished = *in.Finished
				done++
			case serve.StateFailed, serve.StateCanceled:
				return fmt.Errorf("job %s ended %s: %s", job.ID, in.State, in.Error)
			}
			if len(jobs) == 1 {
				continue
			}
			total := in.Stats.TotalSteps
			switch {
			case chosen == nil && in.State == serve.StateRunning && in.Stats.Step >= 1 && in.Stats.Step <= total/2:
				job.suspendPost = wallNow()
				ok, err := h.lifecycle(job, "suspend")
				if err != nil {
					return err
				}
				if ok {
					chosen = job
				}
			case job == chosen && !job.suspendSettled && in.State == serve.StateSuspended:
				job.suspendSettled = true
				job.suspendDone = *in.Finished
				job.resumePost = wallNow()
				ok, err := h.lifecycle(job, "resume")
				if err != nil || !ok {
					return fmt.Errorf("resume %s refused: %v", job.ID, err)
				}
				job.Suspended = true
			}
		}
		if done == len(jobs) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant %s: %d of %d jobs completed after %s", tenant, done, len(jobs), roundTimeout)
		}
		time.Sleep(pollEvery)
	}
}

func (h *serveHarness) sample(used int, heap bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if used > h.slotsHigh {
		h.slotsHigh = used
	}
	if heap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > h.heapPeak {
			h.heapPeak = ms.HeapInuse
		}
	}
}

// round runs one round: every tenant submits its burst and waits it out.
func (h *serveHarness) round(cfg twohot.Config) (*serveRound, error) {
	rd := &serveRound{Seed: cfg.Seed, start: wallNow()}
	bursts := make([][]*serveJob, serveTenants)
	errs := make([]error, serveTenants)
	var wg sync.WaitGroup
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant%d", t)
			for k := 0; k < burstJobs; k++ {
				job, err := h.submit(tenant, cfg)
				if err != nil {
					errs[t] = err
					return
				}
				bursts[t] = append(bursts[t], job)
			}
			errs[t] = h.await(tenant, bursts[t])
		}(t)
	}
	wg.Wait()
	rd.end = wallNow()
	rd.WallS = rd.end.Sub(rd.start).Seconds()
	for t, burst := range bursts {
		rd.Jobs = append(rd.Jobs, burst...)
		if errs[t] != nil {
			return rd, errs[t]
		}
	}
	for _, job := range rd.Jobs {
		rd.TurnaroundS = append(rd.TurnaroundS, job.finished.Sub(job.submitStart).Seconds())
	}
	return rd, nil
}

// verify checks every job of a round against the bit-determinism contract:
// all jobs share one configuration, so their final snapshots — suspended and
// resumed or not — must carry the same state.
func (h *serveHarness) verify(res *workloadResult, rd *serveRound, cfg twohot.Config, smoke bool) error {
	suspended := 0
	crcs := map[string]int{}
	for _, job := range rd.Jobs {
		if job.state != serve.StateCompleted || job.step != cfg.NSteps {
			res.check("job_completed", false, "job %s ended %s at step %d of %d", job.ID, job.state, job.step, cfg.NSteps)
			continue
		}
		snap, err := sdf.Read(filepath.Join(h.dir, job.Tenant, job.ID, cfg.Name+"-final.sdf"))
		if err != nil {
			return err
		}
		if job.CRC, err = stateCRC(snap.Particles); err != nil {
			return err
		}
		crcs[job.CRC]++
		if job.Suspended {
			suspended++
		}
	}
	res.check("state_crc", len(crcs) == 1, "round seed %d: %d jobs, %d suspended and resumed, final state CRCs %v",
		rd.Seed, len(rd.Jobs), suspended, crcs)
	res.check("suspend_resume", smoke || suspended == serveTenants,
		"round seed %d: %d of %d bursts suspended and resumed a job", rd.Seed, suspended, serveTenants)
	for crc := range crcs {
		res.StateCRC = append(res.StateCRC, crc)
	}
	return nil
}

// runServeWorkload runs serve.burst: the untraced rounds (end-to-end metrics),
// the traced rounds (per-layer metrics and per-job spans), or both.
func (b *bench) runServeWorkload(w *workload, untraced, traced bool) (*workloadResult, error) {
	cfg := w.config(b.seed, 1, b.smoke)
	n := particles(cfg)
	res := &workloadResult{Name: w.name, Why: w.why, Config: cfg, Particles: n}
	root := b.workDir(w)
	defer os.RemoveAll(root)

	// Set up several times and keep the last server for the traffic.
	var h *serveHarness
	var setup []float64
	starts := setupSamples
	if b.smoke {
		starts = 1
	}
	for i := 0; i < starts; i++ {
		if h != nil {
			h.close()
		}
		var s float64
		var err error
		runtime.GC()
		if h, s, err = startServer(filepath.Join(root, fmt.Sprintf("srv%d", i)), cfg); err != nil {
			return res, err
		}
		setup = append(setup, s)
	}
	defer h.close()

	rounds := func(minRounds int, budget float64) ([]*serveRound, error) {
		var out []*serveRound
		started, longest := time.Now(), 0.0
		for len(out) < 64 {
			if len(out) >= minRounds && time.Since(started).Seconds()+longest > budget {
				break
			}
			rcfg := cfg
			rcfg.Seed += int64(len(res.Rounds) + len(out))
			runtime.GC()
			rd, err := h.round(rcfg)
			res.Attempted += len(rd.Jobs)
			if err != nil {
				res.Failed += len(rd.Jobs)
				return out, err
			}
			if rd.WallS > longest {
				longest = rd.WallS
			}
			if err := h.verify(res, rd, rcfg, b.smoke); err != nil {
				return out, err
			}
			out = append(out, rd)
		}
		return out, nil
	}
	metrics := func(rds []*serveRound) (thr, p50, p90 []float64) {
		for _, rd := range rds {
			thr = append(thr, float64(len(rd.Jobs)*n*cfg.NSteps)/rd.WallS)
			p50 = append(p50, median(rd.TurnaroundS))
			p90 = append(p90, percentile(rd.TurnaroundS, 0.9))
		}
		return
	}

	minRounds := 2
	if b.smoke {
		minRounds = 1
	}
	var untracedThr float64
	if untraced {
		started := time.Now()
		rds, err := rounds(minRounds, b.seconds-sum(setup))
		if err != nil {
			return res, err
		}
		res.TimedS = time.Since(started).Seconds()
		thr, p50, p90 := metrics(rds)
		untracedThr = median(thr)
		res.setEndToEnd(thr, p50, p90, setup)
		for _, rd := range rds {
			res.Rounds = append(res.Rounds, *rd)
		}
	}
	if traced {
		rds, err := rounds(minRounds, 0)
		if err != nil {
			return res, err
		}
		for _, rd := range rds {
			res.Rounds = append(res.Rounds, *rd)
		}
		if err := b.serveLayers(w, cfg, res, h, rds, untracedThr); err != nil {
			return res, err
		}
	}

	st := h.srv.Stats()
	res.check("all_completed", st.Sims[serve.StateCompleted] == res.Attempted+1,
		"server reports %v; %d jobs and 1 warm-up submitted", st.Sims, res.Attempted)
	// The force error of the job configuration, solved outside the server.
	rep, _, err := setupSim(cfg, true)
	if err != nil {
		return res, err
	}
	ferr, err := forceError(cfg, rep.icAcc, b.workers)
	if err != nil {
		return res, err
	}
	res.check("force_err_rms", b.smoke || ferr <= w.forceErrCeil, "rms force error %.4e vs tight tree reference (ceiling %.1e)", ferr, w.forceErrCeil)
	if traced {
		res.PerLayer["force.err_rms"] = ferr
		res.PerLayer["ic.generate_s"] = rep.ICS
	}
	return res, nil
}

// serveLayers derives the serve.* metrics and the per-job spans of the traced
// rounds from client clocks and the server's Info timestamps.
func (b *bench) serveLayers(w *workload, cfg twohot.Config, res *workloadResult, h *serveHarness, rds []*serveRound, untracedThr float64) error {
	vals := map[string]float64{}
	res.PerLayer = vals
	tr := newTracer(w.name)
	tr.epoch = rds[0].start
	root := tr.add(0, "run", rds[0].start, rds[len(rds)-1].end)

	var jobsPerS, queueS, suspendMs, resumeMs, thr []float64
	for i, rd := range rds {
		rid := tr.add(root, fmt.Sprintf("round[%d]", i), rd.start, rd.end)
		jobsPerS = append(jobsPerS, float64(len(rd.Jobs))/rd.WallS)
		thr = append(thr, float64(len(rd.Jobs)*particles(cfg)*cfg.NSteps)/rd.WallS)
		for _, job := range rd.Jobs {
			jid := tr.add(rid, "job["+job.ID+"]", job.submitStart, job.finished)
			tr.add(jid, "submit", job.submitStart, job.submitEnd)
			tr.add(jid, "queued", job.created, job.started)
			queueS = append(queueS, job.started.Sub(job.created).Seconds())
			if !job.Suspended {
				tr.add(jid, "running", job.started, job.finished)
				continue
			}
			tr.add(jid, "running", job.started, job.suspendDone)
			tr.add(jid, "suspend", job.suspendPost, job.suspendDone)
			tr.add(jid, "suspended", job.suspendDone, job.resumePost)
			tr.add(jid, "resume", job.resumePost, job.resumeStarted)
			tr.add(jid, "running", job.resumeStarted, job.finished)
			suspendMs = append(suspendMs, job.suspendDone.Sub(job.suspendPost).Seconds()*1e3)
			resumeMs = append(resumeMs, job.resumeStarted.Sub(job.resumePost).Seconds()*1e3)
		}
	}
	res.trace = tr
	treeErr := checkSpanTree(tr.spans)
	res.check("span_tree", treeErr == nil, "%d spans: %v", len(tr.spans), treeErr)

	vals["trace.accounted_frac"] = tr.childTime(root) / tr.duration(root)
	if untracedThr > 0 {
		vals["trace.overhead_frac"] = 1 - median(thr)/untracedThr
	}
	vals["serve.jobs_per_s"] = median(jobsPerS)
	vals["serve.submit_ms_p50"] = median(h.submitMs)
	vals["serve.queue_wait_s_p50"] = median(queueS)
	vals["serve.suspend_ms_p50"] = median(suspendMs)
	vals["serve.resume_ms_p50"] = median(resumeMs)
	vals["serve.slots_highwater"] = float64(h.slotsHigh)
	vals["serve.rejected_429"] = float64(h.rejected)
	vals["serve.dropped_streams"] = float64(h.srv.Stats().DroppedStreams)
	vals["mem.heap_inuse_peak_mb"] = float64(h.heapPeak) / 1e6
	return nil
}
