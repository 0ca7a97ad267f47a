(** Negotiation-based rip-up and re-route (PathFinder, McMurchie &
    Ebeling FPGA'95), the paper's dual-defect net routing stage.

    Every iteration re-routes each multi-pin net as a Steiner tree grown
    from its first pin in Prim order: the next pin to connect is the one
    nearest the tree by Manhattan distance, ties broken by pin
    coordinates, so the order in which a net lists its other pins does
    not matter.  Each connection is an A* search from the whole tree to
    the pin inside a window: the bounding box of the pin and its nearest
    tree cell (the newest cell at that distance), plus a margin that
    grows on failure, up to the whole grid.  After an iteration, cells used
    beyond capacity receive history cost and the congestion penalty
    grows; the loop ends when no cell is overused or the iteration
    budget is exhausted.

    The first iteration routes net by net, each net seeing every earlier
    claim.  Later iterations are Jacobi-style batches on the live grid:
    every net under negotiation is searched against the same pre-commit
    congestion state, with its own current route priced out
    ({!Grid.enter_cost_d}), and the new routes are then committed
    serially in deterministic net order.  Conflicts the batch could not
    see surface as overuse at commit time and are renegotiated next
    iteration.  Small or stagnating batches fall back to net-by-net
    routing, which breaks lock-step oscillations.

    Everything runs on the caller's domain.  Fanning a batch out over
    worker domains kept the same routes but was measured slower on a
    2-vCPU machine, and it needed a racily copied, patched grid view;
    so the router has no worker count. *)

type net = { net_id : int; pins : Tqec_util.Vec3.t list }

type config = {
  max_iterations : int;
  initial_penalty : int;
  penalty_growth : int;  (** added to the penalty each iteration *)
  history_increment : int;
  region_margin : int;
  corridor_cells : int;
      (** search-window volume (in cells) above which a connection takes
          the hierarchical path: a coarse corridor over the grid's tile
          graph bounds the fine A*, falling back to the exhaustive flat
          search when the corridor proves infeasible
          ({!Astar.search_corridor}).  Windows at or below the threshold
          always use the flat search, so results on them are
          bit-identical to the historical dense-grid router.  The
          default (1M cells) exceeds every paper-suite instance;
          [max_int] disables the hierarchical path entirely. *)
  corridor_cache : unit;
      (** selects nothing.  The field survives only because the
          benchmark harness builds a full config literal naming it; it
          goes with the next benchmark change. *)
  debug : bool;
      (** per-iteration negotiation trace on stderr.  A config field —
          not an ambient environment read — so concurrent callers (a
          serving daemon handling several requests) stay isolated; the
          CLI layer defaults it from [TQEC_DEBUG]. *)
}

val default_config : config

type routed = {
  r_net : int;
  r_cells : Tqec_util.Vec3.t list;  (** all cells of the net's tree *)
}

type result = {
  routes : routed list;
  success : bool;  (** true when nothing is overused and all nets routed *)
  iterations_used : int;
  overused_after : int;
  unrouted : int list;  (** nets with unreachable pins, if any *)
}

(** [route_all grid config nets] routes every net; [grid] retains the
    final usage state. Nets with fewer than 2 distinct pins route
    trivially to their pin set. *)
val route_all : Grid.t -> config -> net list -> result

(** [validate grid result nets] checks routing legality against the grid:
    every routed net's cell set is connected, touches all its pins, stays
    inside the routing box, crosses obstacles only at the net's own pins,
    and no non-shared cell carries more than {!Grid.capacity} nets beyond
    what [result.overused_after] admits.  Returns error strings; [] means
    the result is sound.  [grid] must carry the same obstacle and shared
    masks the routes were produced against (its usage state is not
    consulted). *)
val validate : Grid.t -> result -> net list -> string list
