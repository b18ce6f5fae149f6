package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	twohot "twohot"
	"twohot/internal/par"
)

// Options configures a Server.  The zero value of every field means the
// documented default.
type Options struct {
	// Dir is the artifact root; simulation sm of tenant t writes exclusively
	// under Dir/t/sm ("" = "2hot-serve-data").
	Dir string
	// PoolWorkers bounds the summed Workers cost of concurrently running
	// simulations (0 = GOMAXPROCS).
	PoolWorkers int
	// TenantWorkers bounds the pool slots any single tenant may hold at once
	// (0 = PoolWorkers, i.e. no per-tenant cap beyond the pool).
	TenantWorkers int
	// QueueCap bounds the number of queued submissions across all tenants; a
	// full queue answers 429 + Retry-After (0 = 64).
	QueueCap int
	// EventBuffer is the per-subscriber event buffer; a subscriber whose
	// buffer overflows is dropped rather than blocking the stepping loop
	// (0 = 64).
	EventBuffer int
}

func (o *Options) defaults() {
	if o.Dir == "" {
		o.Dir = "2hot-serve-data"
	}
	o.PoolWorkers = par.Workers(o.PoolWorkers)
	if o.TenantWorkers <= 0 || o.TenantWorkers > o.PoolWorkers {
		o.TenantWorkers = o.PoolWorkers
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 64
	}
}

// ErrQueueFull is returned by Submit (and surfaced as HTTP 429) when the
// bounded job queue is at capacity.
var ErrQueueFull = errors.New("serve: job queue full")

// errServerClosing is the cancel cause of runs suspended by Close.
var errServerClosing = errors.New("server shutting down")

// Server hosts many concurrent simulations over one bounded worker pool.
// Construct with New, expose with Handler, drain with Close.
type Server struct {
	opt    Options
	broker *broker
	// newSim constructs the Simulation behind a job: twohot.New, except in
	// tests that need a run to misbehave.
	newSim func(twohot.Config, ...twohot.Option) (*twohot.Simulation, error)

	mu         sync.Mutex
	closed     bool
	nextID     int
	sims       map[string]*sim
	order      []string          // creation order; pagination iterates this
	queue      map[string][]*sim // per-tenant FIFO of queued sims
	lastServed string            // fair-share cursor: admission resumes after this tenant
	queued     int
	used       int            // pool slots held by running sims
	tenantUse  map[string]int // pool slots held per tenant

	// High-water marks, kept so tests (and /api/stats consumers) can assert
	// the budgets were never exceeded rather than trusting the code path.
	maxUsed       int
	maxTenantUsed map[string]int

	wg sync.WaitGroup
}

// New creates a Server and its artifact root directory.
func New(opt Options) (*Server, error) {
	opt.defaults()
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Server{
		opt:           opt,
		broker:        newBroker(opt.EventBuffer),
		newSim:        twohot.New,
		sims:          map[string]*sim{},
		queue:         map[string][]*sim{},
		tenantUse:     map[string]int{},
		maxTenantUsed: map[string]int{},
	}, nil
}

// Submit validates and enqueues one simulation for the given tenant.  The
// configuration's OutputDir is replaced by the per-tenant, per-simulation
// artifact directory — callers never choose where the server writes.
func (s *Server) Submit(tenant string, cfg twohot.Config) (Info, error) {
	if !safeName(tenant) {
		return Info{}, fmt.Errorf("serve: invalid tenant %q (letters, digits, '-', '_', '.', '+'; no \"..\")", tenant)
	}
	if cfg.Transport == "tcp" {
		// TCP runs are supervised worker processes (RunClusterSupervised);
		// the server hosts in-process runs only.
		return Info{}, fmt.Errorf("serve: transport \"tcp\" is not servable; use ranks over the in-process \"chan\" fabric")
	}
	// The job runs on exactly the slots it is charged (drive builds it with
	// Workers = cost): an unset worker count runs on one, and each
	// in-process rank needs a goroutine.
	cost := max(1, cfg.Workers, cfg.Ranks)
	if cost > s.opt.PoolWorkers || cost > s.opt.TenantWorkers {
		return Info{}, fmt.Errorf("serve: job needs %d workers but the budget is min(pool %d, tenant %d)",
			cost, s.opt.PoolWorkers, s.opt.TenantWorkers)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Info{}, errors.New("serve: server is shutting down")
	}
	if s.queued >= s.opt.QueueCap {
		return Info{}, ErrQueueFull
	}
	s.nextID++
	id := fmt.Sprintf("s-%06d", s.nextID)
	cfg.OutputDir = filepath.Join(s.opt.Dir, tenant, id)
	if err := cfg.Validate(); err != nil {
		return Info{}, err
	}
	sm := &sim{
		id:      id,
		tenant:  tenant,
		cfg:     cfg,
		cost:    cost,
		dir:     cfg.OutputDir,
		state:   StateQueued,
		created: time.Now(),
		stats:   Stats{TotalSteps: cfg.NSteps, Z: cfg.ZInit},
	}
	s.sims[id] = sm
	s.order = append(s.order, id)
	s.queue[tenant] = append(s.queue[tenant], sm)
	s.queued++
	s.dispatchLocked()
	return sm.infoLocked(), nil
}

// Get returns the Info view of one simulation.
func (s *Server) Get(id string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.sims[id]
	if !ok {
		return Info{}, false
	}
	return sm.infoLocked(), true
}

// List returns one page of the simulation listing in creation order,
// optionally filtered by tenant and state.
func (s *Server) List(tenant string, state State, page, perPage int) (sims []Info, pageNum, per, total int) {
	s.mu.Lock()
	all := s.listLocked(tenant, state)
	s.mu.Unlock()
	sims, pageNum, per = paginate(all, page, perPage)
	return sims, pageNum, per, len(all)
}

// Suspend asks a simulation to stop at its next step boundary and write a
// resumable checkpoint.  A queued simulation is dequeued immediately (it has
// no state to checkpoint); a running one drains through "suspending" and the
// runner writes the checkpoint.  Idempotent on already-suspended sims.
func (s *Server) Suspend(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.sims[id]
	if !ok {
		return Info{}, errNotFound
	}
	switch sm.state {
	case StateQueued:
		s.dequeueLocked(sm)
		sm.state = StateSuspended
		s.publishStateLocked(sm)
	case StateRunning:
		sm.state = StateSuspending
		sm.intent = intentSuspend
		sm.cancel(errors.New("suspend requested"))
		s.publishStateLocked(sm)
	case StateSuspending, StateSuspended:
		// Already on the way; idempotent.
	default:
		return Info{}, stateConflict("suspend", sm.state)
	}
	return sm.infoLocked(), nil
}

// Resume re-enqueues a suspended simulation.  If a checkpoint exists the
// restored run continues the original step grid bit-identically; a
// suspended-while-queued simulation starts fresh.
func (s *Server) Resume(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Info{}, errors.New("serve: server is shutting down")
	}
	sm, ok := s.sims[id]
	if !ok {
		return Info{}, errNotFound
	}
	if sm.state != StateSuspended {
		return Info{}, stateConflict("resume", sm.state)
	}
	if s.queued >= s.opt.QueueCap {
		return Info{}, ErrQueueFull
	}
	sm.state = StateQueued
	sm.intent = intentNone
	sm.finished = time.Time{}
	sm.stats.Resumes++
	s.queue[sm.tenant] = append(s.queue[sm.tenant], sm)
	s.queued++
	s.publishStateLocked(sm)
	s.dispatchLocked()
	return sm.infoLocked(), nil
}

// Cancel stops a simulation without writing a checkpoint: a queued one is
// dequeued, a running one drains through "canceling", a suspended one is
// marked canceled.  Idempotent on sims already canceled or draining.
func (s *Server) Cancel(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.sims[id]
	if !ok {
		return Info{}, errNotFound
	}
	switch sm.state {
	case StateQueued:
		s.dequeueLocked(sm)
		sm.state = StateCanceled
		sm.finished = time.Now()
		s.publishStateLocked(sm)
		s.broker.finish(sm.id)
	case StateRunning, StateSuspending:
		sm.state = StateCanceling
		sm.intent = intentCancel
		sm.cancel(errors.New("cancel requested"))
		s.publishStateLocked(sm)
	case StateSuspended:
		sm.state = StateCanceled
		sm.finished = time.Now()
		s.publishStateLocked(sm)
		s.broker.finish(sm.id)
	case StateCanceling, StateCanceled:
		// Idempotent.
	default:
		return Info{}, stateConflict("cancel", sm.state)
	}
	return sm.infoLocked(), nil
}

// Delete removes a stopped simulation's record and artifact directory.
// Running or queued simulations must be canceled or suspended first.
func (s *Server) Delete(id string) error {
	s.mu.Lock()
	sm, ok := s.sims[id]
	if !ok {
		s.mu.Unlock()
		return errNotFound
	}
	if !sm.state.stopped() {
		s.mu.Unlock()
		return stateConflict("delete", sm.state)
	}
	delete(s.sims, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	dir := sm.dir
	s.mu.Unlock()
	s.broker.finish(id)
	return os.RemoveAll(dir)
}

// Stats returns the server-wide pool/queue view.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// Close drains the server: running simulations are suspended (checkpoint
// written, resumable after a restart from the same artifact directory),
// queued ones are parked as suspended, and Close returns once every runner
// has exited and every event stream is closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, sm := range s.sims {
		switch sm.state {
		case StateRunning:
			sm.state = StateSuspending
			sm.intent = intentSuspend
			sm.cancel(errServerClosing)
			s.publishStateLocked(sm)
		case StateQueued:
			s.dequeueLocked(sm)
			sm.state = StateSuspended
			s.publishStateLocked(sm)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.broker.closeAll()
	return nil
}

// dequeueLocked removes a queued sim from its tenant's FIFO; callers hold
// Server.mu and adjust the sim's state themselves.
func (s *Server) dequeueLocked(sm *sim) {
	q := s.queue[sm.tenant]
	for i, other := range q {
		if other == sm {
			s.queue[sm.tenant] = append(q[:i], q[i+1:]...)
			s.queued--
			return
		}
	}
}

// errNotFound maps to HTTP 404.
var errNotFound = errors.New("serve: no such simulation")

// conflictError maps to HTTP 409: the operation is meaningless in the
// simulation's current state.
type conflictError struct {
	op    string
	state State
}

func (e conflictError) Error() string {
	return fmt.Sprintf("serve: cannot %s a %s simulation", e.op, e.state)
}

func stateConflict(op string, st State) error { return conflictError{op, st} }
