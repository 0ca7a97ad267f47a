(** Process-wide routing diagnostics in the style of {!Tqec_util.Pool.stats}:
    atomic counters bumped on the router's hot paths, read as a snapshot.

    The counters are observability only: routing decisions never read
    them, so they cannot perturb results.  Over a deterministic run the
    totals are deterministic too (every increment corresponds to a
    deterministic event — which searches ran, which scratch arrays
    grew — independent of worker interleaving). *)

(** {2 Increment points (owned by the router internals)} *)

val coarse_searches : int Atomic.t
(** Coarse tile-graph A* runs ({!Astar.coarse_corridor}). *)

val fine_searches : int Atomic.t
(** Fine in-corridor A* runs ({!Astar.fine_in_corridor}). *)

val flat_searches : int Atomic.t
(** Exhaustive cell-level A* runs ({!Astar.search}). *)

val flat_fallbacks : int Atomic.t
(** Hierarchical attempts that found no path and fell back to the
    exhaustive search over the same window. *)

val scratch_grows : int Atomic.t
(** A* scratch array reallocations ({!Astar.scratch} growth events).
    At steady state — scratch warmed to the largest region seen — new
    searches and corridor-widening escalations must not grow it. *)

(** {2 Snapshot} *)

type stats = {
  coarse_searches : int;
  fine_searches : int;
  flat_searches : int;
  flat_fallbacks : int;
  scratch_grows : int;
}

val stats : unit -> stats
(** Consistent-enough snapshot: each field is read atomically (the set
    is not read under a lock, which diagnostics do not need). *)

val reset : unit -> unit
(** Zero every counter (benchmark harnesses isolating a phase). *)
