module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3

let capacity = 1

let outside_die_cost = 6

(* Chunked sparse congestion state: the bounding box is carved into
   fixed-size [tile_edge]^3 tiles, allocated on first touch through a
   flat tile directory.  Memory scales with the number of touched
   tiles — the routed skeleton — not with the substrate volume, which
   for sparse assemblies is orders of magnitude larger. *)
let tile_bits = 3

let tile_edge = 1 lsl tile_bits

let tile_mask = tile_edge - 1

let tile_cells = tile_edge * tile_edge * tile_edge

type tile = {
  t_usage : int array;
  t_hist : int array;
  t_obst : Bytes.t;
  t_shared : Bytes.t;
  (* Incrementally maintained tile summaries, the capacity signal the
     coarse corridor search reads: total usage + history over the tile,
     and the count of obstacle cells (a fully-obstacled tile is
     impassable at the coarse level). *)
  mutable t_sum_usage : int;
  mutable t_sum_hist : int;
  mutable t_n_obst : int;
}

type t = {
  box : Box3.t;
  die : Box3.t;
  nx : int;
  ny : int;
  nz : int;
  (* tile directory dimensions: ceil (n / tile_edge) per axis *)
  tx : int;
  ty : int;
  tz : int;
  tiles : tile option array;
  (* Cells currently above capacity, by flat index.  Maintained
     incrementally by [add_usage]/[set_shared], so [overused] is
     O(overused) instead of rescanning the whole x*y*z volume every
     negotiation iteration. *)
  over : (int, unit) Hashtbl.t;
}

let create ?die box =
  let nx = Box3.dx box and ny = Box3.dy box and nz = Box3.dz box in
  let tx = (nx + tile_mask) lsr tile_bits in
  let ty = (ny + tile_mask) lsr tile_bits in
  let tz = (nz + tile_mask) lsr tile_bits in
  {
    box;
    die = (match die with Some d -> d | None -> box);
    nx;
    ny;
    nz;
    tx;
    ty;
    tz;
    tiles = Array.make (tx * ty * tz) None;
    over = Hashtbl.create 64;
  }

let box g = g.box
let die g = g.die
let in_bounds g p = Box3.contains g.box p

(* Global flat cell index — unchanged from the dense grid, so the
   [overused] ordering (x, then y, then z ascending) is bit-identical to
   the historical full-scan order. *)
let index g (p : Vec3.t) =
  let x = p.x - g.box.Box3.lo.Vec3.x in
  let y = p.y - g.box.Box3.lo.Vec3.y in
  let z = p.z - g.box.Box3.lo.Vec3.z in
  ((x * g.ny) + y) * g.nz + z

let cell_of_index g i =
  let lo = g.box.Box3.lo in
  let z = i mod g.nz in
  let rest = i / g.nz in
  let y = rest mod g.ny in
  let x = rest / g.ny in
  Vec3.make (lo.Vec3.x + x) (lo.Vec3.y + y) (lo.Vec3.z + z)

(* Tile directory index and within-tile cell index of the cell at
   box-relative coordinates (x, y, z). *)
let tile_rel g x y z =
  (((x lsr tile_bits) * g.ty) + (y lsr tile_bits)) * g.tz + (z lsr tile_bits)

let cell_rel x y z =
  (((x land tile_mask) lsl tile_bits) lor (y land tile_mask)) lsl tile_bits
  lor (z land tile_mask)

let tile_cell g (p : Vec3.t) =
  let x = p.x - g.box.Box3.lo.Vec3.x in
  let y = p.y - g.box.Box3.lo.Vec3.y in
  let z = p.z - g.box.Box3.lo.Vec3.z in
  (tile_rel g x y z, cell_rel x y z)

let guard g p name =
  if not (in_bounds g p) then
    invalid_arg (Printf.sprintf "Grid.%s: out of bounds %s" name (Vec3.to_string p))

let fresh_tile () =
  {
    t_usage = Array.make tile_cells 0;
    t_hist = Array.make tile_cells 0;
    t_obst = Bytes.make tile_cells '\000';
    t_shared = Bytes.make tile_cells '\000';
    t_sum_usage = 0;
    t_sum_hist = 0;
    t_n_obst = 0;
  }

let ensure_tile g ti =
  match g.tiles.(ti) with
  | Some t -> t
  | None ->
      let t = fresh_tile () in
      g.tiles.(ti) <- Some t;
      t

let set_obstacle g p =
  guard g p "set_obstacle";
  let ti, ci = tile_cell g p in
  let t = ensure_tile g ti in
  if Bytes.get t.t_obst ci <> '\001' then begin
    Bytes.set t.t_obst ci '\001';
    t.t_n_obst <- t.t_n_obst + 1
  end

let set_obstacle_box g b =
  match Box3.inter g.box b with
  | None -> ()
  | Some clipped -> List.iter (set_obstacle g) (Box3.cells clipped)

let is_obstacle g p =
  in_bounds g p
  &&
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with
  | None -> false
  | Some t -> Bytes.get t.t_obst ci = '\001'

let set_shared g p =
  guard g p "set_shared";
  let ti, ci = tile_cell g p in
  let t = ensure_tile g ti in
  Bytes.set t.t_shared ci '\001';
  (* shared cells have unlimited capacity: whatever their usage, they can
     no longer be overused *)
  Hashtbl.remove g.over (index g p)

let is_shared g p =
  in_bounds g p
  &&
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with
  | None -> false
  | Some t -> Bytes.get t.t_shared ci = '\001'

let usage g p =
  guard g p "usage";
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with None -> 0 | Some t -> t.t_usage.(ci)

let add_usage g p delta =
  guard g p "add_usage";
  let ti, ci = tile_cell g p in
  let old = match g.tiles.(ti) with None -> 0 | Some t -> t.t_usage.(ci) in
  let u = old + delta in
  (* reject before writing anything, the tile allocation included: a
     caught raise leaves the grid untouched *)
  if u < 0 then invalid_arg "Grid.add_usage: negative usage";
  let t = ensure_tile g ti in
  t.t_usage.(ci) <- u;
  t.t_sum_usage <- t.t_sum_usage + delta;
  if Bytes.get t.t_shared ci <> '\001' then
    if u > capacity then Hashtbl.replace g.over (index g p) ()
    else Hashtbl.remove g.over (index g p)

let history g p =
  guard g p "history";
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with None -> 0 | Some t -> t.t_hist.(ci)

let add_history g p delta =
  guard g p "add_history";
  let ti, ci = tile_cell g p in
  let t = ensure_tile g ti in
  t.t_hist.(ci) <- t.t_hist.(ci) + delta;
  t.t_sum_hist <- t.t_sum_hist + delta

(* Integer-coordinate queries for the flat A* kernel: one tile read per
   call and no tuple or [Vec3.t] in sight, so the hot loop allocates
   nothing.  The bounds test raises with a constant message for the same
   reason. *)
let in_box_rel g x y z =
  x >= 0 && y >= 0 && z >= 0 && x < g.nx && y < g.ny && z < g.nz

let passable_at g ~avoid_used x y z =
  let lo = g.box.Box3.lo in
  let x = x - lo.Vec3.x and y = y - lo.Vec3.y and z = z - lo.Vec3.z in
  if not (in_box_rel g x y z) then invalid_arg "Grid.passable_at: out of bounds";
  match g.tiles.(tile_rel g x y z) with
  | None -> true (* untouched tile: no obstacle, usage 0 *)
  | Some t ->
      let ci = cell_rel x y z in
      Bytes.get t.t_obst ci <> '\001'
      && ((not avoid_used)
         || Bytes.get t.t_shared ci = '\001'
         || t.t_usage.(ci) < capacity)

let enter_cost_at g ~penalty ~dusage x y z =
  let die = g.die in
  let base =
    if
      x >= die.Box3.lo.Vec3.x && x <= die.Box3.hi.Vec3.x
      && y >= die.Box3.lo.Vec3.y && y <= die.Box3.hi.Vec3.y
      && z >= die.Box3.lo.Vec3.z && z <= die.Box3.hi.Vec3.z
    then 1
    else 1 + outside_die_cost
  in
  let lo = g.box.Box3.lo in
  let x = x - lo.Vec3.x and y = y - lo.Vec3.y and z = z - lo.Vec3.z in
  if not (in_box_rel g x y z) then invalid_arg "Grid.enter_cost_at: out of bounds";
  match g.tiles.(tile_rel g x y z) with
  | None ->
      (* untouched tile: usage 0, history 0, not shared *)
      let over = dusage + 1 - capacity in
      base + (if over > 0 then penalty * over else 0)
  | Some t ->
      let ci = cell_rel x y z in
      if Bytes.get t.t_shared ci = '\001' then base + t.t_hist.(ci)
      else
        let over = t.t_usage.(ci) + dusage + 1 - capacity in
        base + t.t_hist.(ci) + (if over > 0 then penalty * over else 0)

let enter_cost_d g ~penalty ~dusage (p : Vec3.t) =
  guard g p "enter_cost";
  enter_cost_at g ~penalty ~dusage p.x p.y p.z

let enter_cost g ~penalty p = enter_cost_d g ~penalty ~dusage:0 p

let overused g =
  (* hash-order: sorted by flat index so the order matches the historical
     full scan (x, then y, then z ascending) whatever the hash layout *)
  Hashtbl.fold (fun i () acc -> i :: acc) g.over []
  |> List.sort Int.compare
  |> List.map (cell_of_index g)

let overused_count g = Hashtbl.length g.over

(* ------------------------------------------------------------------ *)
(* Tile-level queries for the hierarchical corridor search.            *)
(* ------------------------------------------------------------------ *)

let n_tiles g = g.tx * g.ty * g.tz

let tile_dims g = (g.tx, g.ty, g.tz)

let tile_index g (p : Vec3.t) =
  let lo = g.box.Box3.lo in
  tile_rel g (p.x - lo.Vec3.x) (p.y - lo.Vec3.y) (p.z - lo.Vec3.z)

let tile_coords g ti =
  let z = ti mod g.tz in
  let rest = ti / g.tz in
  let y = rest mod g.ty in
  let x = rest / g.ty in
  (x, y, z)

let tile_origin g ti =
  let x, y, z = tile_coords g ti in
  let lo = g.box.Box3.lo in
  Vec3.make
    (lo.Vec3.x + (x lsl tile_bits))
    (lo.Vec3.y + (y lsl tile_bits))
    (lo.Vec3.z + (z lsl tile_bits))

(* In-bounds cell count of a (possibly boundary-clipped) tile. *)
let tile_volume g ti =
  let x, y, z = tile_coords g ti in
  let w = min tile_edge (g.nx - (x lsl tile_bits)) in
  let h = min tile_edge (g.ny - (y lsl tile_bits)) in
  let d = min tile_edge (g.nz - (z lsl tile_bits)) in
  w * h * d

let tile_congestion g ti =
  match g.tiles.(ti) with
  | None -> 0
  | Some t -> t.t_sum_usage + t.t_sum_hist

let tile_blocked g ti =
  match g.tiles.(ti) with
  | None -> false
  | Some t -> t.t_n_obst >= tile_volume g ti

let tile_free g ti =
  let vol = tile_volume g ti in
  match g.tiles.(ti) with
  | None -> vol
  | Some t -> max 0 (vol - t.t_n_obst - t.t_sum_usage)

(* ------------------------------------------------------------------ *)
(* Memory accounting for the scale-tier benchmarks.                    *)
(* ------------------------------------------------------------------ *)

type mem = {
  mem_tiles : int;
  mem_tiles_total : int;
  mem_cells : int;
  mem_touched_cells : int;
  mem_words : int;
}

let mem g =
  let tiles = Array.fold_left (fun a t -> if t = None then a else a + 1) 0 g.tiles in
  let per_tile =
    (* two boxed int arrays, two byte masks (in words), record header *)
    (2 * (tile_cells + 1)) + (2 * ((tile_cells / 8) + 1)) + 8
  in
  {
    mem_tiles = tiles;
    mem_tiles_total = Array.length g.tiles;
    mem_cells = g.nx * g.ny * g.nz;
    mem_touched_cells = tiles * tile_cells;
    mem_words = Array.length g.tiles + (tiles * per_tile) + (2 * Hashtbl.length g.over);
  }
