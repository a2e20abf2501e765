(** Lock-free work-stealing execution runtime.

    One worker domain per requested slot, each owning a {!Deque}
    (owner-LIFO push/pop, thief-FIFO steal); external submissions enter
    through the wait-free-producer {!Injector} and are batch-drained
    into the receiving worker's private ring and deque so sibling
    workers can steal the surplus. An idle worker tries its ring, its
    deque, then the injector, then a randomized rotation over the other
    {e active} workers' deques; after a failed sweep it escalates
    through three idle stages — [Domain.cpu_relax] spins, then short
    timed naps that yield the OS timeslice without paying a full
    park/unpark futex round-trip, and finally a condition-variable park.
    Submitters wake sleepers with a Dekker-style handshake (sleeper
    count published atomically {e before} the final emptiness re-check,
    submitter completes its push {e before} reading the count), so no
    task is ever stranded with every worker asleep. In the default mode
    only the {e last} awake worker is obliged to re-check the injector
    before sleeping, all others park opportunistically; in blocking
    mode every parker re-checks, because an awake sibling may be
    blocked inside a task.

    Workers beyond the host's parallel capacity
    ([Domain.recommended_domain_count]) are spawned but held in
    STANDBY — parked on a dedicated condvar until shutdown, never
    taking tasks. Oversubscribed CPU-bound domains add no throughput
    but inflate every stop-the-world minor-GC rendezvous by an OS
    scheduling latency, which was measured doubling a fine-grained
    flood's wall clock on a one-core host. [stats.workers] still
    reports the requested count.

    Scheduling is intentionally nondeterministic; determinism of
    results is the {e caller's} collection order (see
    {!Gmt_parallel.Pool}: futures keyed by submission index).

    Exceptions escaping a raw task are caught, the first one is stored,
    and {!shutdown} re-raises it after joining the workers (tasks
    wrapped in futures by [Pool] never raise — this is the safety net
    for direct users of this module). *)

type t

type task = unit -> unit

type stats = {
  workers : int;  (** worker domains owned by this scheduler *)
  tasks_run : int;  (** tasks executed to completion *)
  injected : int;
      (** external submissions accepted. Maintained as a plain field on
          the submit hot path (a fenced RMW there was measurable):
          exact for a single submitting domain, a lower bound if
          several domains submit concurrently. *)
  steals_attempted : int;  (** steal CAS attempts, failed ones included *)
  steals_succeeded : int;  (** tasks obtained from a sibling's deque *)
  parks : int;  (** times a worker gave up spinning and parked *)
  deque_depth_peak : int;  (** max per-worker deque depth observed *)
}

val create : ?blocking:bool -> workers:int -> unit -> t
(** Spawn [workers] (>= 1) worker domains. Unlike
    {!Gmt_parallel.Pool.create} there is no inline mode: [workers = 1]
    spawns one real domain (the A/B microbenchmark compares the two
    runtimes' machinery, not inline execution).

    The default ([blocking = false]) is tuned for CPU-bound fan-out:
    active workers are clamped to the host's parallel capacity (the
    rest stand by), and injector drains are batched into a private
    ring. Pools whose tasks {e park} — request handlers sleeping in
    I/O or on a single-flight condvar, as in the gmtd daemon — must
    pass [~blocking:true]: every worker stays active regardless of
    core count, each grab takes one task (a private batch would
    serialize its tail behind the first task that blocks), and every
    submit wakes a sleeper. Without it a small host serializes
    requests and coalescing never triggers.
    @raise Invalid_argument when [workers < 1]. *)

val submit : t -> task -> unit
(** Enqueue a task from any domain. Lock-free except for the one-shot
    wake of parked workers.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Cooperative shutdown: workers drain every remaining task, then
    exit; joins them all, then re-raises the first exception a raw task
    leaked, if any. Idempotent; call from the owning domain. *)

val stats : t -> stats
(** Counter snapshot. Exact once {!shutdown} returned (joining creates
    the happens-before edge); a racy-but-safe under-approximation while
    workers are still running — good enough for the live stats plane. *)

val domains_spawned_total : unit -> int
(** Process-wide count of worker domains ever spawned by {!create} —
    the spawn-count metric behind the regression test that
    [Pool.run_list] on an empty or singleton task list spawns no
    domain at all. *)
