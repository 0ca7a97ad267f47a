(** Mutable binary min-heap keyed by integer priorities.

    The A* router and the PathFinder wavefronts push the same element more
    than once with decreasing keys instead of performing decrease-key; the
    consumer skips stale pops, which is the standard trick for grid
    routing.

    Entries are ordered by (key, insertion sequence number): ties on the
    key pop in insertion order (FIFO), and since sequence numbers are
    unique the pop order is a function of the push/pop history alone,
    whatever the heap's internal layout.  The sequence counter restarts
    at {!clear}.

    Storage is a structure of arrays — parallel [keys], [seqs] and
    [vals] arrays that grow geometrically — so neither {!push} nor the
    {!top_key}/{!pop_value} pair allocates once the arrays have grown to
    the queue's peak length (with immediate values such as [int] cell
    codes). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit

(** [top_key t] is the smallest key, without removal.
    @raise Not_found when empty. *)
val top_key : 'a t -> int

(** [pop_value t] removes the entry [top_key t] names and returns its
    value — the non-allocating pop for hot loops: read {!top_key} first
    when the key is needed.  @raise Not_found when empty. *)
val pop_value : 'a t -> 'a

(** [pop t] removes and returns the (key, value) pair with the smallest
    key; ties are broken by insertion order (FIFO), keeping searches
    deterministic.  Allocates the pair.  @raise Not_found when empty. *)
val pop : 'a t -> int * 'a

(** [peek t] is [pop] without removal. @raise Not_found when empty. *)
val peek : 'a t -> int * 'a

val clear : 'a t -> unit
