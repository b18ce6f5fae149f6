// Package serve is the simulation-as-a-service layer: a long-running,
// multi-tenant server hosting many concurrent simulations over one bounded
// worker pool, composed entirely from primitives the library already
// guarantees — bit-identical checkpoint/restore (Simulation.WriteCheckpoint /
// RestoreCheckpoint), cooperative run cancellation (Simulation.RunContext),
// and the Observer / AnalysisObserver hooks.
//
// # Lifecycle
//
// A submission (a twohot.Config POSTed by a tenant) moves through a small
// state machine:
//
//	queued ──────► running ──────────────► completed
//	   │              │  ╲                     │
//	   │          suspending ► suspended ──► (resume ► queued)
//	   │              │                        │
//	   └─── canceled ◄┴── canceling      canceled
//	                  │
//	              failed
//
// Suspend cancels the run at the next step boundary and writes a checkpoint
// (closing the leapfrog first only when the stepper's state is not
// checkpoint-representable, exactly like Run's periodic checkpoints); resume
// re-enqueues the job, and the restored run continues the original step grid
// — the resumed trajectory is bit-identical to the uninterrupted run, which
// the lifecycle test pins end to end over the HTTP API.  Cancel stops at the
// next boundary without a checkpoint.  Delete is valid only for stopped
// simulations (suspended or terminal) and removes the record and every
// artifact.  Server.Close suspends all running simulations, so a drained
// server leaves only resumable state behind.
//
// # Scheduling and isolation
//
// Each job costs max(1, Config.Workers, Config.Ranks) slots of a global
// pool (Options.PoolWorkers), and runs on exactly that many: the runner
// builds the job with Config.Workers set to its cost, so a job that leaves
// workers unset runs on one goroutine, not on GOMAXPROCS, and a ranks: N
// job's N in-process ranks split its slots between them.  A per-tenant
// budget (Options.TenantWorkers) caps the slots any one tenant holds, and
// admission is fair-share: tenants with queued work are served round-robin
// (FIFO within a tenant), so a tenant with a deep queue cannot starve the
// others.  The queue itself is bounded
// (Options.QueueCap); a full queue answers HTTP 429 with a Retry-After
// header — backpressure, not buffering.  Every simulation writes exclusively
// under Dir/<tenant>/<id>/, so identically-named configs from different
// tenants (or the same one) never collide, and Config.Validate rejects names
// that could escape that directory.
//
// # Diagnostics
//
// A per-simulation event stream (GET /api/sims/{id}/events, Server-Sent
// Events) carries "state", "step" (step, redshift, energy tallies, rung
// histogram — the StepInfo payload) and "analysis" events, fed from the
// observer hooks through a bounded fan-out broker.  Publishing never blocks
// the stepping loop: a subscriber whose buffer is full is dropped (and
// counted), never waited on.  The stream closes when the simulation reaches
// a terminal state; a suspended simulation's stream stays open and carries
// the resume.
//
// The REST surface follows the paginated resource + /stats exemplar
// (SNIPPETS.md Snippet 2); see the README "Serving simulations" section for
// the endpoint table.
package serve
