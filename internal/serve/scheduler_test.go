package serve

import (
	"errors"
	"sort"
	"testing"
	"time"

	twohot "twohot"
)

// TestSchedulerFairShare pins the admission rotation: with a one-slot pool
// and two tenants, a tenant that queued three jobs first cannot run them
// back to back — admission alternates tenants while FIFO order holds within
// each tenant.
func TestSchedulerFairShare(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1, TenantWorkers: 1, QueueCap: 16})
	cfg := testConfig("fair", 2)
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := s.Submit("bravo", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for i := 0; i < 3; i++ {
		info, err := s.Submit("alfa", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateCompleted, 60*time.Second)
	}

	// Reconstruct the admission order from the start timestamps (the pool
	// has one slot, so starts are strictly ordered).
	infos := make([]Info, 0, len(ids))
	for _, id := range ids {
		info, _ := s.Get(id)
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Started.Before(*infos[j].Started) })
	var tenants []string
	for _, in := range infos {
		tenants = append(tenants, in.Tenant)
	}
	want := []string{"bravo", "alfa", "bravo", "alfa", "bravo", "alfa"}
	for i := range want {
		if tenants[i] != want[i] {
			t.Fatalf("admission order %v, want alternating %v (tenant bravo must not monopolize the pool)", tenants, want)
		}
	}
}

// TestSchedulerBackpressure pins the bounded queue: with the single pool slot
// held by a long run, submissions beyond QueueCap come back ErrQueueFull.
func TestSchedulerBackpressure(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1, QueueCap: 2})
	long := testConfig("long", 500)
	holder, err := s.Submit("alfa", long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, holder.ID, StateRunning, 30*time.Second)

	var queued []string
	for i := 0; i < 2; i++ {
		info, err := s.Submit("alfa", testConfig("q", 2))
		if err != nil {
			t.Fatalf("submission %d within QueueCap rejected: %v", i, err)
		}
		queued = append(queued, info.ID)
	}
	if _, err := s.Submit("alfa", testConfig("q", 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission beyond QueueCap returned %v, want ErrQueueFull", err)
	}
	// Backpressure is per queue slot, not per tenant: another tenant is
	// rejected just the same.
	if _, err := s.Submit("bravo", testConfig("q", 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("cross-tenant submission beyond QueueCap returned %v, want ErrQueueFull", err)
	}

	// Drain: cancel the holder and the queued jobs.
	for _, id := range append([]string{holder.ID}, queued...) {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range append([]string{holder.ID}, queued...) {
		waitState(t, s, id, StateCanceled, 30*time.Second)
	}
}

// TestSchedulerRejectsOversizedJobs pins that a job whose Workers cost can
// never fit the pool or the tenant budget is rejected at submit, not queued
// forever.
func TestSchedulerRejectsOversizedJobs(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 4, TenantWorkers: 2, QueueCap: 4})
	cfg := testConfig("wide", 2)
	cfg.Workers = 3 // fits the pool, exceeds the tenant budget
	if _, err := s.Submit("alfa", cfg); err == nil {
		t.Fatal("job wider than the tenant budget was accepted")
	}
	cfg.Workers = 5 // exceeds the pool outright
	if _, err := s.Submit("alfa", cfg); err == nil {
		t.Fatal("job wider than the pool was accepted")
	}
}

// TestSubmitChargesWhatItRuns pins the cost rule: a job is charged
// max(1, workers, ranks) slots, and the Config the runner builds carries
// that count as its Workers, so a job with workers unset runs on one
// goroutine rather than GOMAXPROCS, and a ranks: 2 job's two in-process ranks
// get a slot each.
func TestSubmitChargesWhatItRuns(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 4, QueueCap: 4})
	built := make(chan twohot.Config, 1)
	s.newSim = func(cfg twohot.Config, opts ...twohot.Option) (*twohot.Simulation, error) {
		built <- cfg
		return nil, errors.New("built, not run")
	}
	for _, tc := range []struct{ workers, ranks, want int }{{0, 0, 1}, {1, 2, 2}, {0, 2, 2}, {3, 2, 3}} {
		cfg := testConfig("cost", 2)
		cfg.Workers, cfg.Ranks = tc.workers, tc.ranks
		if tc.ranks > 1 {
			cfg.Transport = "chan"
		}
		info, err := s.Submit("alfa", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if info.Workers != tc.want {
			t.Errorf("workers %d ranks %d: charged %d slots, want %d", tc.workers, tc.ranks, info.Workers, tc.want)
		}
		if got := (<-built).Workers; got != tc.want {
			t.Errorf("workers %d ranks %d: the runner built a Config with Workers %d, want %d", tc.workers, tc.ranks, got, tc.want)
		}
		waitState(t, s, info.ID, StateFailed, 10*time.Second)
	}
}

// TestSubmitRejectsUnservableConfigs pins the submission gates: invalid
// tenant names, the tcp transport (supervised subprocesses, not servable
// in-process) and configurations that fail Validate.
func TestSubmitRejectsUnservableConfigs(t *testing.T) {
	s := newTestServer(t, Options{PoolWorkers: 1})
	if _, err := s.Submit("../escape", testConfig("x", 2)); err == nil {
		t.Fatal("path-escaping tenant accepted")
	}
	if _, err := s.Submit("a/b", testConfig("x", 2)); err == nil {
		t.Fatal("tenant with separator accepted")
	}
	cfg := testConfig("x", 2)
	cfg.Transport = "tcp"
	cfg.Ranks = 2
	if _, err := s.Submit("alfa", cfg); err == nil {
		t.Fatal("tcp transport accepted by the in-process server")
	}
	bad := testConfig("x", 2)
	bad.Solver = "warp-drive"
	if _, err := s.Submit("alfa", bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	evil := testConfig("../../etc/cron", 2)
	if _, err := s.Submit("alfa", evil); err == nil {
		t.Fatal("path-escaping simulation name accepted")
	}
}
