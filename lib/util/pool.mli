(** Persistent work-stealing scheduler over OCaml 5 domains ([Domain] +
    [Atomic] + [Mutex]/[Condition], no dependencies).

    Worker domains are spawned once and parked on a condition variable
    when idle; {!map}/{!run} are submission fronts onto per-worker
    Chase–Lev deques plus a FIFO injector for external callers.  A
    blocked parent helps by draining tasks instead of sleeping, so
    nested parallelism composes: suite instances × annealing restart
    lanes all feed one pool, and no combination of nested [map]s can
    deadlock — even on a pool with zero workers, where the caller simply
    runs everything itself.

    Determinism: the scheduler only chooses where and when tasks run.
    Results land in submission-index order and the lowest-index failure
    wins, so parallel runs are bit-identical to serial ones whenever
    the tasks themselves are deterministic — the property every
    placement/benchmark fan-out in this repo relies on. *)

type t
(** A pool instance.  Most callers never touch this: omitting [?pool]
    uses the lazily created process-wide pool, which grows on demand up
    to the largest worker count ever requested and is intentionally
    never shut down (parked domains cost nothing, and process exit with
    parked domains is clean). *)

(** [default_jobs ()] is the parallelism from the [TQEC_JOBS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  [TQEC_JOBS=1] restores fully
    serial execution. *)
val default_jobs : unit -> int

(** [create ~workers] is a private fixed-size pool (it never grows past
    [workers]; [0] is allowed and makes every caller self-help).  For
    tests and benchmarks — production code should use the shared
    default pool. *)
val create : workers:int -> t

(** Stop and join a private pool's workers.  The caller must have no
    outstanding work on the pool.  Never needed for the default pool. *)
val shutdown : t -> unit

(** [map ?pool ?jobs f arr] is [Array.map f arr] computed with
    parallelism [jobs] (default {!default_jobs}); the caller
    participates, so [jobs = 2] means one worker plus the caller.
    Output order matches input order.  Safe to call from inside a task
    (nested fork-join): the nested caller helps drain its own subtasks.

    Exception safety: a raising task never deadlocks or poisons the
    pool.  Remaining tasks still run, and only then is the lowest-index
    task's exception re-raised on the caller — with its original
    backtrace, matching what the serial path would have thrown first.
    A [Domain.spawn] failure degrades to fewer workers. *)
val map : ?pool:t -> ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** [run ?pool ?jobs thunks] forces an array of thunks in parallel. *)
val run : ?pool:t -> ?jobs:int -> (unit -> 'a) array -> 'a array

(** Scheduler counters, cumulative since pool creation.  [executed]
    counts tasks run anywhere (workers and helping callers), [stolen]
    the subset obtained by stealing from another worker's deque,
    [injected] the submissions that went through the external FIFO
    rather than a worker's own deque, [parks] how many times any
    participant slept on the condition variable, and [submitted] all
    tasks ever submitted.  Read racily (no lock): totals can lag by a
    few in-flight tasks.  [spawn_error] is [Some msg] when a
    [Domain.spawn] failed and the pool degraded to fewer workers than
    requested — callers still complete by helping, but the cause is
    kept for diagnosis. *)
type stats = {
  workers : int;
  executed : int;
  stolen : int;
  injected : int;
  parks : int;
  submitted : int;
  spawn_error : string option;
}

(** Counters for [pool] (default: the process-wide pool). *)
val stats : ?pool:t -> unit -> stats
