package serve

import (
	"sort"
	"strings"
	"time"

	twohot "twohot"
)

// State is a simulation's position in the serving lifecycle.
type State string

const (
	StateQueued     State = "queued"
	StateRunning    State = "running"
	StateSuspending State = "suspending" // suspend requested, run draining to its step boundary
	StateSuspended  State = "suspended"  // stopped with (usually) a checkpoint; resumable
	StateCanceling  State = "canceling"  // cancel requested, run draining
	StateCanceled   State = "canceled"
	StateCompleted  State = "completed"
	StateFailed     State = "failed"
)

// Terminal reports whether the state is final: the simulation will never run
// again (suspended is NOT terminal — it resumes).
func (st State) Terminal() bool {
	return st == StateCanceled || st == StateCompleted || st == StateFailed
}

// stopped reports whether the simulation holds no pool slots and no queue
// position: the states delete accepts.
func (st State) stopped() bool { return st.Terminal() || st == StateSuspended }

// Stats is the live diagnostic snapshot of a simulation, updated after every
// completed step from the Observer hook (the StepInfo payload).
type Stats struct {
	Step       int     `json:"step"`
	TotalSteps int     `json:"totalSteps"`
	Z          float64 `json:"z"`
	A          float64 `json:"a"`
	Particles  int     `json:"particles"`
	Kinetic    float64 `json:"kinetic"`
	Potential  float64 `json:"potential"`
	Rungs      []int   `json:"rungs,omitempty"`
	Suspends   int     `json:"suspends"`
	Resumes    int     `json:"resumes"`
}

// Info is the JSON view of a simulation record served by the API.
type Info struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Name     string     `json:"name"`
	State    State      `json:"state"`
	Workers  int        `json:"workers"` // pool slots the job costs
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	Stats    Stats      `json:"stats"`
}

// sim is the server-side record.  Every field except cfg, id, tenant, dir and
// cost (immutable after Submit) is guarded by Server.mu.
type sim struct {
	id     string
	tenant string
	cfg    twohot.Config
	cost   int    // pool slots, and the Workers the job runs on: max(1, cfg.Workers, cfg.Ranks)
	dir    string // Dir/<tenant>/<id>; all artifacts live here

	state    State
	intent   intent // why the running context was canceled
	cancel   func(error)
	ckpt     string // checkpoint to resume from ("" = fresh start)
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	stats    Stats
}

// intent distinguishes the two reasons a running simulation's context gets
// canceled; the runner turns the same context.Canceled into a suspend
// checkpoint or a plain stop accordingly.
type intent int

const (
	intentNone intent = iota
	intentSuspend
	intentCancel
)

// infoLocked renders the JSON view; callers hold Server.mu.
func (sm *sim) infoLocked() Info {
	in := Info{
		ID:      sm.id,
		Tenant:  sm.tenant,
		Name:    sm.cfg.Name,
		State:   sm.state,
		Workers: sm.cost,
		Created: sm.created,
		Error:   sm.errMsg,
		Stats:   sm.stats,
	}
	if !sm.started.IsZero() {
		t := sm.started
		in.Started = &t
	}
	if !sm.finished.IsZero() {
		t := sm.finished
		in.Finished = &t
	}
	return in
}

// listLocked returns the Info views in creation order, optionally filtered by
// tenant and state; callers hold Server.mu.
func (s *Server) listLocked(tenant string, state State) []Info {
	out := make([]Info, 0, len(s.order))
	for _, id := range s.order {
		sm := s.sims[id]
		if tenant != "" && sm.tenant != tenant {
			continue
		}
		if state != "" && sm.state != state {
			continue
		}
		out = append(out, sm.infoLocked())
	}
	return out
}

// paginate slices one page out of the full listing, Snippet 2 style: pages
// are 1-based, perPage defaults to 50 and is capped at 200.
func paginate(all []Info, page, perPage int) (pageOut []Info, pageNum, per int) {
	if perPage <= 0 {
		perPage = 50
	}
	if perPage > 200 {
		perPage = 200
	}
	if page <= 0 {
		page = 1
	}
	lo := (page - 1) * perPage
	if lo >= len(all) {
		return []Info{}, page, perPage
	}
	hi := lo + perPage
	if hi > len(all) {
		hi = len(all)
	}
	return all[lo:hi], page, perPage
}

// safeName reports whether s is safe to interpolate into a single path
// component: non-empty, no separators, no "..", a conservative charset.
// Tenant names and catalog labels go through this.
func safeName(s string) bool {
	if s == "" || strings.Contains(s, "..") {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.' || r == '+':
		default:
			return false
		}
	}
	return true
}

// ServerStats is the server-wide /api/stats payload.
type ServerStats struct {
	PoolWorkers    int            `json:"poolWorkers"`
	TenantWorkers  int            `json:"tenantWorkers"`
	UsedWorkers    int            `json:"usedWorkers"`
	QueueCap       int            `json:"queueCap"`
	Queued         int            `json:"queued"`
	Sims           map[State]int  `json:"sims"`
	Tenants        map[string]int `json:"tenants"` // pool slots held per tenant
	DroppedStreams int            `json:"droppedStreams"`
}

// statsLocked assembles the server-wide view; callers hold Server.mu.
func (s *Server) statsLocked() ServerStats {
	st := ServerStats{
		PoolWorkers:   s.opt.PoolWorkers,
		TenantWorkers: s.opt.TenantWorkers,
		UsedWorkers:   s.used,
		QueueCap:      s.opt.QueueCap,
		Queued:        s.queued,
		Sims:          map[State]int{},
		Tenants:       map[string]int{},
	}
	for _, sm := range s.sims {
		st.Sims[sm.state]++
	}
	for t, n := range s.tenantUse {
		if n > 0 {
			st.Tenants[t] = n
		}
	}
	st.DroppedStreams = s.broker.droppedCount()
	return st
}

// tenantsWithWork returns the sorted tenants that have queued submissions;
// callers hold Server.mu.
func (s *Server) tenantsWithWork() []string {
	var tens []string
	for t, q := range s.queue {
		if len(q) > 0 {
			tens = append(tens, t)
		}
	}
	sort.Strings(tens)
	return tens
}
