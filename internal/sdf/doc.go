// Package sdf implements the self-describing file format 2HOT uses for
// snapshots and checkpoints (Section 3.4.2): an ASCII header of parameter
// assignments plus a C-style struct declaration describing the raw binary
// particle records that follow.
//
// # Contract
//
// Write serializes a Snapshot — per particle the position, momentum, mass,
// identifier and work weight (the declared struct: nine 8-byte columns), plus
// the scale factors, box size, cosmology name and free-form Extra parameters
// — and Read/ReadFrom parse one back.  The work column is what lets a
// resumed distributed run choose the same work-weighted domains as the
// uninterrupted one; a file declaring only the first eight columns (written
// before the column existed) reads with every weight 1, and any other layout
// is rejected.  Checkpoints additionally
// record the leapfrog offset between positions and momenta
// (MomentumScaleFac) and, via Extra, the step-grid anchor, so a restarted
// run keeps second-order accuracy and continues the original step grid bit
// for bit (the checkpoint-continuity suite at the repository root pins
// this).  Block-timestep runs write checkpoints synchronized — Simulation
// closes the leapfrog before a snapshot is taken — so the single
// MomentumScaleFac remains sufficient.
//
// The reader treats input as untrusted: declared counts are validated
// against the actual byte length, preallocation is capped, and truncated or
// corrupted bodies return errors instead of panicking (corrupt_test.go and
// FuzzReadFrom pin this).
//
// # Bit-identity invariants
//
// Particle payloads are raw little-endian float64/int64 — no text round-trip
// — so Write∘Read is the identity on every particle bit; header floats use
// 17-significant-digit formatting for the same reason.  Nothing in this
// package may alter a value it transports.
//
// # Concurrency model
//
// Plain synchronous I/O with no package state; distinct files may be read
// and written concurrently, but a single Snapshot or stream belongs to one
// goroutine at a time.
package sdf
