// Package comm is the message-passing runtime of the distributed solver: the
// in-repo analogue of the MPI layer the paper's code runs on.  A simulation
// world is N ranks exchanging tagged messages; everything above this package
// (domain decomposition, the distributed tree build, the solver's data
// exchange) is written against ranks and tags only, never against sockets or
// channels.
//
// # Communication patterns
//
// Three pattern families are built on the Transport seam:
//
//   - Point-to-point: Rank.Send and Rank.Recv move a tagged byte payload
//     between two ranks.  Sends are buffered (never block on the receiver);
//     receives block until a match, a deadline (DeadlineError), or peer death
//     (PeerDeadError).
//   - Collectives: Barrier, AllreduceFloat64, AllgatherBytes/Uint64 and
//     AlltoallvBytes are deterministic message schedules over point-to-point
//     sends.  Each call stamps its messages with a per-rank sequence number
//     in a reserved internal tag space, so collectives cannot be confused
//     with application traffic or with each other, and reductions combine
//     contributions in rank order — bitwise reproducible for a fixed rank
//     count.  AlltoallvBytes runs the direct schedule; the pairwise and
//     hierarchical schedules the paper compares it with are a test-side
//     harness (alltoall_test.go, BenchmarkAlltoallVariants).
//   - ABM: the asynchronous batched messaging service of the HOT codes
//     (NewABM) — a background request/reply engine for remote tree-node
//     fetches during traversal, multiplexed over the same transport via a
//     wildcard receive that is blind to internal tags.
//
// # Payloads are bytes
//
// A message is a tag and a []byte, and a transport moves the bytes unchanged:
// no fabric knows a payload's type, a zero-length payload is a nil one, and
// Stats.PointToPointBytes and Stats.CollectiveBytes are sums of payload
// lengths on every fabric.  The
// record that crosses the rank boundary owns its one encoding, as an
// append/parse pair beside its type:
//
//   - comm encodes only what it originates: the ABM request and reply
//     (abm.go), the reduction scalars and the block list behind the allgather
//     fan-out and the hierarchical alltoall's bundle (coll.go, frame.go).
//   - Callers encode what they send: particle records
//     (particle.EncodeRange/DecodeAppend) through the domain exchange and the
//     cluster gathers, cell blocks (tree.EncodeCells/DecodeCells) through the
//     branch exchange and as ABM replies.
//
// Every parser bounds-checks counts and lengths against the remaining input
// before allocating; DESIGN.md "Wire format" specifies each record.
//
// # Transports
//
// Transport is the seam between those patterns and the machinery that moves
// bytes; see its contract.  Two implementations ship:
//
//   - NewWorld runs all ranks as goroutines of one process over
//     shared-memory mailboxes — the reference implementation and the
//     fabric behind Config.Ranks > 1 runs.
//   - JoinTCP connects one rank process into a fully-connected TCP mesh.
//     Every frame is length-prefixed and CRC32-checksummed; data frames are
//     acknowledged, retransmitted with exponentially backed-off jittered
//     retries (TCPOptions.RetryBase, MaxSendAttempts) and deduplicated by
//     sequence number on receipt, so a frame lost, delayed, duplicated or
//     corrupted in flight never changes what the application observes.
//     Idle connections carry heartbeats; a peer silent past
//     LivenessTimeout — or whose retries exhaust — is declared dead, and
//     every receive that could only be satisfied by dead peers fails with
//     PeerDeadError instead of hanging.
//
// The same rank body runs bit-identically on either transport; the TCP
// world's results are pinned against the in-process world's byte for byte
// (see internal/cluster).
//
// # Failure model
//
// All operations return errors rather than panicking or blocking forever:
// closed transports yield ErrClosed, timeouts DeadlineError, dead peers
// PeerDeadError (test with errors.As).  Callers treat peer death as fatal
// for the world — recovery is by restart from a checkpoint, orchestrated
// one level up by internal/cluster's supervisor — so no transport attempts
// to reintegrate a lost rank.
//
// ChaosOptions injects seeded, deterministic faults (drop, delay, duplicate,
// corrupt, kill-process) into first-attempt outgoing frames, which is how
// the recovery machinery is exercised in tests and CI without flakiness.
package comm
