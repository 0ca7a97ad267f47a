(** 3D routing grid with PathFinder-style congestion bookkeeping, stored
    as a chunked sparse volume.

    Each unit cell has capacity 1 (one dual strand), a present usage
    count, an accumulated history cost, and an obstacle flag (primal
    module cores and distillation boxes).  The negotiated-congestion cost
    of entering a cell is

    [base + history + penalty * max 0 (usage + 1 - capacity)]

    so shared cells become increasingly expensive across iterations.

    Storage is tiled: the bounding box is carved into {!tile_edge}^3
    chunks allocated on first touch through a flat tile directory, so
    memory scales with the touched (routed/obstacled) volume instead of
    the substrate volume.  Untouched cells read as usage 0, history 0,
    no obstacle, not shared.  Each tile also carries incrementally
    maintained summaries (total usage + history, obstacle count) that
    the hierarchical router reads as tile-level capacity signals: the
    coarse corridor search prices tiles with them and the failed-search
    window growth widens toward free capacity. *)

type t

(** [create ?die box] allocates the tile directory (no tiles yet).  Cells
    outside [die] (the placement bounding box) cost extra to enter, so
    wires spill out of the die — growing the space-time volume — only
    under real congestion pressure. *)
val create : ?die:Tqec_util.Box3.t -> Tqec_util.Box3.t -> t

val box : t -> Tqec_util.Box3.t

(** The extra-cost boundary passed to {!create} ([box] when omitted). *)
val die : t -> Tqec_util.Box3.t

val in_bounds : t -> Tqec_util.Vec3.t -> bool

val set_obstacle : t -> Tqec_util.Vec3.t -> unit

(** [set_obstacle_box g b] marks every cell of [b] (clipped). *)
val set_obstacle_box : t -> Tqec_util.Box3.t -> unit

val is_obstacle : t -> Tqec_util.Vec3.t -> bool

(** Shared cells have unlimited capacity: net pin cells, where several
    dual strands legitimately thread the same primal loop. *)
val set_shared : t -> Tqec_util.Vec3.t -> unit

val is_shared : t -> Tqec_util.Vec3.t -> bool

val usage : t -> Tqec_util.Vec3.t -> int

(** [add_usage g p delta] adds [delta] to [p]'s usage.  Raises
    [Invalid_argument] when the result would be negative, before
    changing anything: the grid is as it was. *)
val add_usage : t -> Tqec_util.Vec3.t -> int -> unit

val history : t -> Tqec_util.Vec3.t -> int

val add_history : t -> Tqec_util.Vec3.t -> int -> unit

(** [enter_cost g ~penalty p] is the congestion cost of entering [p]
    (obstacles are handled by the router, not here). *)
val enter_cost : t -> penalty:int -> Tqec_util.Vec3.t -> int

(** [enter_cost_d g ~penalty ~dusage p] is {!enter_cost} computed as if
    the cell's usage were [usage + dusage].  With [dusage = -1] on the
    cells of a net's own current route, it prices a re-route exactly as
    if that net had first been ripped up — the trick that lets every net
    of a negotiation batch search the same, unmodified grid. *)
val enter_cost_d : t -> penalty:int -> dusage:int -> Tqec_util.Vec3.t -> int

(** {2 Integer-coordinate queries}

    The flat A* kernel's per-neighbour reads, taking the cell as three
    absolute coordinates instead of a {!Tqec_util.Vec3.t}: each reads
    one tile and allocates nothing.  The cell must lie in {!box};
    both raise [Invalid_argument] otherwise. *)

(** [passable_at g ~avoid_used x y z] is
    [not (is_obstacle g p) && (not avoid_used || is_shared g p
    || usage g p < capacity)] for the cell [p] at (x, y, z). *)
val passable_at : t -> avoid_used:bool -> int -> int -> int -> bool

(** [enter_cost_at g ~penalty ~dusage x y z] is
    [enter_cost_d g ~penalty ~dusage p] for the cell [p] at (x, y, z). *)
val enter_cost_at : t -> penalty:int -> dusage:int -> int -> int -> int -> int

(** [overused g] lists cells with usage above capacity, in lexicographic
    (x, y, z) order.  The set is maintained incrementally by
    {!add_usage}/{!set_shared}, so the call is O(overused log overused) —
    it never rescans the grid volume. *)
val overused : t -> Tqec_util.Vec3.t list

(** [overused_count g] is [List.length (overused g)] in O(1). *)
val overused_count : t -> int

val capacity : int

(** Additive surcharge on the base entry cost of cells outside the die
    (the coarse corridor search prices whole out-of-die tiles with it). *)
val outside_die_cost : int

(** {2 Tile geometry and summaries}

    The coarse level of the hierarchical router works on the tile graph:
    one node per directory slot, 6-neighbor adjacency, capacity signals
    from the incrementally maintained per-tile summaries. *)

(** Tile side length in cells (a compile-time constant). *)
val tile_edge : int

(** Cells per tile ([tile_edge]^3). *)
val tile_cells : int

(** Directory size ([n_tiles g = tx * ty * tz]). *)
val n_tiles : t -> int

(** Tile directory dimensions [(tx, ty, tz)]. *)
val tile_dims : t -> int * int * int

(** [tile_index g p] is the directory index of the tile containing [p]
    (which must be in bounds); layout is x-major, matching
    {!tile_dims}. *)
val tile_index : t -> Tqec_util.Vec3.t -> int

(** [tile_origin g ti] is the lowest cell of tile [ti] (boundary tiles
    may extend past the grid box; clip with {!box}). *)
val tile_origin : t -> int -> Tqec_util.Vec3.t

(** [tile_cell g p] is [p]'s (directory index, within-tile index); the
    within-tile index is x-major over the [tile_edge]^3 cells. *)
val tile_cell : t -> Tqec_util.Vec3.t -> int * int

(** [tile_congestion g ti] is the tile's summed usage + history — the
    coarse congestion signal, maintained incrementally by
    {!add_usage}/{!add_history} (O(1) per cell update). *)
val tile_congestion : t -> int -> int

(** [tile_blocked g ti] is true when every in-bounds cell of the tile is
    an obstacle: the tile is impassable at the coarse level. *)
val tile_blocked : t -> int -> bool

(** [tile_free g ti] is the tile's free capacity: in-bounds cells minus
    obstacles minus summed usage, clamped at 0.  The signal the
    tile-summary-guided region growth reads to expand a search corridor
    toward under-used volume first. *)
val tile_free : t -> int -> int

(** {2 Memory accounting} *)

type mem = {
  mem_tiles : int;  (** allocated (touched) tiles *)
  mem_tiles_total : int;  (** tile directory capacity *)
  mem_cells : int;  (** bounding-box volume in cells *)
  mem_touched_cells : int;  (** [mem_tiles * tile_cells] *)
  mem_words : int;  (** approximate live heap words held by the grid *)
}

(** [mem g] reports how much of the substrate volume is actually
    materialized — the asymptotics the scale-tier benchmarks track. *)
val mem : t -> mem
