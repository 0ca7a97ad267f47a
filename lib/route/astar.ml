module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Pqueue = Tqec_util.Pqueue

(* Reusable per-searcher workspace.  Arrays grow geometrically with the
   largest region seen; a generation stamp marks which entries belong to
   the current search, so reuse needs no O(cells) clearing.  Each worker
   domain owns its scratch — nothing here is shared. *)
type scratch = {
  mutable cap : int;
  mutable g_score : int array;
  mutable parent : int array;
  mutable h_cache : int array;
  mutable stamp : int array;
  mutable own : bool array;
  mutable gen : int;
  queue : int Pqueue.t;
  (* Small per-search side tables, hoisted here so repeated searches —
     in particular the corridor-widening escalation ladder, which can
     run several attempts per connect — reuse their bucket arrays
     instead of allocating fresh hashtables per attempt.  [Hashtbl.clear]
     keeps the grown bucket table (where [reset] would shrink it). *)
  exempt : (int, unit) Hashtbl.t;
  slot_of : (int, int) Hashtbl.t;
  member : (int, unit) Hashtbl.t;
  excl_tiles : (int, int) Hashtbl.t;
}

let create_scratch () =
  {
    cap = 0;
    g_score = [||];
    parent = [||];
    h_cache = [||];
    stamp = [||];
    own = [||];
    gen = 0;
    queue = Pqueue.create ();
    exempt = Hashtbl.create 64;
    slot_of = Hashtbl.create 64;
    member = Hashtbl.create 64;
    excl_tiles = Hashtbl.create 64;
  }

(* Grow the dense arrays to at least [cells] slots.  Geometric growth:
   once the scratch has warmed to the largest region seen, further
   searches — including every widening step of the corridor escalation
   ladder — reallocate nothing ([Counters.scratch_grows] stays flat,
   which bench/route_stress.ml pins). *)
let grow scr cells =
  if scr.cap < cells then begin
    Atomic.incr Counters.scratch_grows;
    let cap = max cells (max 64 (2 * scr.cap)) in
    scr.g_score <- Array.make cap max_int;
    scr.parent <- Array.make cap (-1);
    scr.h_cache <- Array.make cap 0;
    scr.stamp <- Array.make cap 0;
    scr.own <- Array.make cap false;
    scr.cap <- cap
  end

(* Every kernel searches [region] clipped to the grid box; a region
   disjoint from the grid, or one that misses the target, has no path. *)
let clip grid region target =
  match Box3.inter region (Grid.box grid) with
  | Some r when Box3.contains r target -> Some r
  | _ -> None

(* Region-local dense state: corridors are small, so flat arrays beat
   hashing on both speed and allocation.

   The kernel is unboxed: a cell is its region code
   [((x * ny) + y) * nz + z] over region-local coordinates, neighbours
   are code offsets (+-ny*nz, +-nz, +-1) behind integer bounds tests,
   grid reads go through the integer-coordinate [Grid] queries, and the
   open queue pops through [top_key]/[pop_value].  Without flambda a
   decoded [Vec3.t], a neighbour list, a tile tuple per grid read or a
   popped pair would each be a heap allocation per expansion; as it is,
   only the per-source set-up and the returned path allocate
   (@route-stress gates this).

   Invariant behind the bit-identical routes guarantee: neighbours are
   relaxed in the order +x, -x, +y, -y, +z, -z (the order of
   [Vec3.axis_neighbors]), and the open queue pops by (key,
   insertion sequence).  Together they fix which of several equal-cost
   paths is found; changing either reorders equal-cost pops and can
   change routes. *)
let search ?scratch ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) grid ~region ~penalty ~sources ~target =
  match clip grid region target with
  | None -> None
  | Some region ->
    let lo = region.Box3.lo in
    let x0 = lo.Vec3.x and y0 = lo.Vec3.y and z0 = lo.Vec3.z in
    let nx = Box3.dx region and ny = Box3.dy region and nz = Box3.dz region in
    let syz = ny * nz in
    let cells = nx * syz in
    let encode (p : Vec3.t) = ((((p.x - x0) * ny) + (p.y - y0)) * nz) + (p.z - z0) in
    let decode i =
      let z = i mod nz in
      let rest = i / nz in
      Vec3.make ((rest / ny) + x0) ((rest mod ny) + y0) (z + z0)
    in
    Atomic.incr Counters.flat_searches;
    let scr = match scratch with Some s -> s | None -> create_scratch () in
    let exempt = scr.exempt in
    Hashtbl.clear exempt;
    List.iter
      (fun s ->
        if Box3.contains region s then Hashtbl.replace exempt (encode s) ())
      sources;
    let target_code = encode target in
    Hashtbl.replace exempt target_code ();
    (* absolute coordinates; sources and target pass whatever the grid
       says *)
    let passable x y z code =
      Grid.passable_at grid ~avoid_used x y z || Hashtbl.mem exempt code
    in
    grow scr cells;
    scr.gen <- scr.gen + 1;
    let gen = scr.gen in
    let g_score = scr.g_score
    and parent = scr.parent
    and h_cache = scr.h_cache
    and stamp = scr.stamp
    and own = scr.own in
    let open_q = scr.queue in
    Pqueue.clear open_q;
    (* The heuristic is fixed per cell, so compute it once when the cell
       is first touched this search (against precomputed target
       coordinates): the stale-entry check at pop never decodes the cell
       or re-derives the Manhattan distance. *)
    let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
    let touch x y z code =
      if stamp.(code) <> gen then begin
        stamp.(code) <- gen;
        g_score.(code) <- max_int;
        parent.(code) <- -1;
        own.(code) <- false;
        h_cache.(code) <- abs (x - tx) + abs (y - ty) + abs (z - tz)
      end
    in
    (* Cells of the searching net's own current route are priced as if
       already ripped up (usage - 1): marked before the sources so a
       later [touch] cannot clear the flag. *)
    let have_own = exclude <> [] in
    if have_own then
      List.iter
        (fun (c : Vec3.t) ->
          if Box3.contains region c then begin
            let code = encode c in
            touch c.x c.y c.z code;
            own.(code) <- true
          end)
        exclude;
    List.iter
      (fun (s : Vec3.t) ->
        if Box3.contains region s then begin
          let code = encode s in
          if passable s.x s.y s.z code then begin
            touch s.x s.y s.z code;
            g_score.(code) <- 0;
            Pqueue.push open_q h_cache.(code) code
          end
        end)
      sources;
    (* Relax the edge from [code] (g-score [gp]) into the in-region cell
       [qcode] at absolute coordinates (x, y, z). *)
    let relax code gp qcode x y z =
      if passable x y z qcode then begin
        touch x y z qcode;
        let dusage = if have_own && own.(qcode) then -1 else 0 in
        let tentative = gp + Grid.enter_cost_at grid ~penalty ~dusage x y z in
        if tentative < g_score.(qcode) then begin
          g_score.(qcode) <- tentative;
          parent.(qcode) <- code;
          Pqueue.push open_q (tentative + h_cache.(qcode)) qcode
        end
      end
    in
    let found = ref false in
    let expansions = ref 0 in
    while (not !found) && (not (Pqueue.is_empty open_q))
          && !expansions < max_expansions do
      incr expansions;
      let f = Pqueue.top_key open_q in
      let code = Pqueue.pop_value open_q in
      let gp = g_score.(code) in
      (* skip stale queue entries *)
      if f <= gp + h_cache.(code) then begin
        if code = target_code then found := true
        else begin
          let lz = code mod nz in
          let rest = code / nz in
          let ly = rest mod ny and lx = rest / ny in
          let x = lx + x0 and y = ly + y0 and z = lz + z0 in
          if lx + 1 < nx then relax code gp (code + syz) (x + 1) y z;
          if lx > 0 then relax code gp (code - syz) (x - 1) y z;
          if ly + 1 < ny then relax code gp (code + nz) x (y + 1) z;
          if ly > 0 then relax code gp (code - nz) x (y - 1) z;
          if lz + 1 < nz then relax code gp (code + 1) x y (z + 1);
          if lz > 0 then relax code gp (code - 1) x y (z - 1)
        end
      end
    done;
    if not !found then None
    else begin
      let rec backtrack acc code =
        let acc = decode code :: acc in
        if parent.(code) = -1 then acc else backtrack acc parent.(code)
      in
      Some (backtrack [] target_code)
    end

(* ------------------------------------------------------------------ *)
(* Hierarchical corridor search.                                       *)
(*                                                                     *)
(* Above a region-volume threshold (the caller's call), flat A* pays   *)
(* O(region volume) scratch and wavefront costs even when the useful   *)
(* geometry is a thin skeleton.  The hierarchical variant first runs a *)
(* coarse A* over the tile graph — one node per Grid tile, 6-neighbor  *)
(* adjacency, costs from the incrementally maintained per-tile         *)
(* summaries — then restricts the fine cell-level A* to the corridor:  *)
(* the coarse path's tiles plus their axis neighbors.  Scratch and     *)
(* wavefront now scale with the corridor volume.                       *)
(*                                                                     *)
(* The fine pass deliberately re-implements the A* loop of [search]    *)
(* instead of sharing it behind closures: the corridor uses a          *)
(* tile-slot cell encoding, and cell codes feed the priority queue, so *)
(* any encoding change reorders equal-cost pops — [search] must keep   *)
(* its exact historical behavior for the bit-identical routes          *)
(* guarantee, and closure-parameterizing its hot loop would tax every  *)
(* existing caller.                                                    *)
(* ------------------------------------------------------------------ *)

(* The coarse pass prices tile congestion with a FIXED penalty instead
   of the caller's negotiation penalty.  The corridor choice is a guide
   (feasibility and exact costs are re-established by the fine pass), so
   the iteration-dependent penalty buys nothing there. *)
let coarse_penalty = 6

(* Coarse pass: A* over the tile graph restricted to tiles meeting
   [region], from the sources' tiles to the target's tile.  Returns the
   corridor as a list of tile indices (path tiles plus axis neighbors),
   or None when even the coarse graph offers no path.

   [exclude] prices the net's own current route out of the tile
   congestion (each excluded cell carries exactly the +1 usage the net
   itself claimed, so a per-tile count subtraction is exact) — the
   coarse-level analogue of the fine pass's own-route bias. *)
let coarse_corridor ?(exclude = []) scr grid ~region ~sources
    ~(target : Vec3.t) =
  match clip grid region target with
  | None -> None
  | Some region -> begin
  Atomic.incr Counters.coarse_searches;
  let penalty = coarse_penalty in
  let _, tdy, tdz = Grid.tile_dims grid in
  let n_tiles = Grid.n_tiles grid in
  grow scr n_tiles;
  scr.gen <- scr.gen + 1;
  let gen = scr.gen in
  let g_score = scr.g_score
  and parent = scr.parent
  and h_cache = scr.h_cache
  and stamp = scr.stamp in
  let open_q = scr.queue in
  Pqueue.clear open_q;
  let edge = Grid.tile_edge in
  (* tile-coordinate bounds of the region: a tile is in play iff its
     coordinates fall inside (its cell box then meets [region]) *)
  let lo = (Grid.box grid).Box3.lo in
  let tlo = region.Box3.lo and thi = region.Box3.hi in
  let tlx = (tlo.Vec3.x - lo.Vec3.x) / edge
  and tly = (tlo.Vec3.y - lo.Vec3.y) / edge
  and tlz = (tlo.Vec3.z - lo.Vec3.z) / edge in
  let thx = (thi.Vec3.x - lo.Vec3.x) / edge
  and thy = (thi.Vec3.y - lo.Vec3.y) / edge
  and thz = (thi.Vec3.z - lo.Vec3.z) / edge in
  let encode x y z = ((x * tdy) + y) * tdz + z in
  let die = Grid.die grid in
  let ttx = Grid.tile_index grid target / (tdy * tdz) in
  let tty = Grid.tile_index grid target / tdz mod tdy in
  let ttz = Grid.tile_index grid target mod tdz in
  let target_code = encode ttx tty ttz in
  let exempt = scr.exempt in
  Hashtbl.clear exempt;
  Hashtbl.replace exempt target_code ();
  List.iter
    (fun s ->
      if Box3.contains region s then
        Hashtbl.replace exempt (Grid.tile_index grid s) ())
    sources;
  let excl = scr.excl_tiles in
  Hashtbl.clear excl;
  List.iter
    (fun c ->
      if Box3.contains region c then begin
        let ti = Grid.tile_index grid c in
        Hashtbl.replace excl ti
          (1 + Option.value ~default:0 (Hashtbl.find_opt excl ti))
      end)
    exclude;
  let touch x y z code =
    if stamp.(code) <> gen then begin
      stamp.(code) <- gen;
      g_score.(code) <- max_int;
      parent.(code) <- -1;
      h_cache.(code) <- (abs (x - ttx) + abs (y - tty) + abs (z - ttz)) * edge
    end
  in
  (* Entering a tile costs roughly a tile traversal: the edge length at
     base cost, scaled up by the tile's average congestion (summed usage
     weighted by the negotiation penalty, plus history) and by the
     outside-die surcharge when the tile lies wholly outside the die.
     This is a guide, not a guarantee — feasibility is re-established by
     the fine pass. *)
  let enter_tile x y z code =
    (* clamped defensively: with the route_all call discipline the
       excluded cells' usage is really present, so the subtraction
       cannot go negative — but A* must never see a negative edge *)
    let congestion =
      max 0
        (Grid.tile_congestion grid code
        - Option.value ~default:0 (Hashtbl.find_opt excl code))
    in
    let ox = lo.Vec3.x + (x * edge) and oy = lo.Vec3.y + (y * edge)
    and oz = lo.Vec3.z + (z * edge) in
    let outside =
      ox > die.Box3.hi.Vec3.x
      || oy > die.Box3.hi.Vec3.y
      || oz > die.Box3.hi.Vec3.z
      || ox + edge - 1 < die.Box3.lo.Vec3.x
      || oy + edge - 1 < die.Box3.lo.Vec3.y
      || oz + edge - 1 < die.Box3.lo.Vec3.z
    in
    let base = if outside then edge * (1 + Grid.outside_die_cost) else edge in
    base + (congestion * penalty * edge / Grid.tile_cells)
  in
  let seed code =
    let x = code / (tdy * tdz) and y = code / tdz mod tdy and z = code mod tdz in
    touch x y z code;
    if g_score.(code) <> 0 then begin
      g_score.(code) <- 0;
      Pqueue.push open_q h_cache.(code) code
    end
  in
  List.iter
    (fun (s : Vec3.t) ->
      if Box3.contains region s then seed (Grid.tile_index grid s))
    sources;
  let found = ref false in
  let expansions = ref 0 in
  while (not !found) && (not (Pqueue.is_empty open_q)) && !expansions < n_tiles * 8
  do
    incr expansions;
    let f, code = Pqueue.pop open_q in
    let gp = g_score.(code) in
    if f <= gp + h_cache.(code) then begin
      if code = target_code then found := true
      else begin
        let x = code / (tdy * tdz) and y = code / tdz mod tdy and z = code mod tdz in
        let expand nx ny nz =
          if
            nx >= tlx && nx <= thx && ny >= tly && ny <= thy && nz >= tlz
            && nz <= thz
          then begin
            let ncode = encode nx ny nz in
            if Hashtbl.mem exempt ncode || not (Grid.tile_blocked grid ncode)
            then begin
              touch nx ny nz ncode;
              let tentative = gp + enter_tile nx ny nz ncode in
              if tentative < g_score.(ncode) then begin
                g_score.(ncode) <- tentative;
                parent.(ncode) <- code;
                Pqueue.push open_q (tentative + h_cache.(ncode)) ncode
              end
            end
          end
        in
        expand (x - 1) y z;
        expand (x + 1) y z;
        expand x (y - 1) z;
        expand x (y + 1) z;
        expand x y (z - 1);
        expand x y (z + 1)
      end
    end
  done;
  if not !found then None
  else begin
    (* corridor = path tiles plus their in-range axis neighbors, in
       deterministic discovery order (slot numbering feeds cell codes,
       and codes break priority-queue ties) *)
    let member = scr.member in
    Hashtbl.clear member;
    let corridor = ref [] in
    let add code =
      if not (Hashtbl.mem member code) then begin
        Hashtbl.replace member code ();
        corridor := code :: !corridor
      end
    in
    let rec walk code =
      add code;
      if parent.(code) <> -1 then walk parent.(code)
    in
    walk target_code;
    let on_path = List.rev !corridor in
    List.iter
      (fun code ->
        let x = code / (tdy * tdz) and y = code / tdz mod tdy and z = code mod tdz in
        let ring nx ny nz =
          if
            nx >= tlx && nx <= thx && ny >= tly && ny <= thy && nz >= tlz
            && nz <= thz
          then add (encode nx ny nz)
        in
        ring (x - 1) y z;
        ring (x + 1) y z;
        ring x (y - 1) z;
        ring x (y + 1) z;
        ring x y (z - 1);
        ring x y (z + 1))
      on_path;
    Some (List.rev !corridor)
  end
  end

(* Fine pass: cell-level A* restricted to [corridor], a tile-index list
   from [coarse_corridor].  Cells are encoded as slot * tile_cells
   + in-tile offset, so scratch scales with the corridor, never with
   the region's bounding volume. *)
let fine_in_corridor ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) scr grid ~corridor ~region ~penalty ~sources ~target =
  match clip grid region target with
  | None -> None
  | Some region -> begin
    Atomic.incr Counters.fine_searches;
    let tcells = Grid.tile_cells in
    let slots = Array.of_list corridor in
    let n_slots = Array.length slots in
    let slot_of = scr.slot_of in
    Hashtbl.clear slot_of;
    Array.iteri (fun i ti -> Hashtbl.replace slot_of ti i) slots;
        let cells = n_slots * tcells in
        grow scr cells;
        scr.gen <- scr.gen + 1;
        let gen = scr.gen in
        let g_score = scr.g_score
        and parent = scr.parent
        and h_cache = scr.h_cache
        and stamp = scr.stamp
        and own = scr.own in
        let open_q = scr.queue in
        Pqueue.clear open_q;
        (* -1: outside the corridor *)
        let encode (p : Vec3.t) =
          let ti, ci = Grid.tile_cell grid p in
          match Hashtbl.find_opt slot_of ti with
          | None -> -1
          | Some s -> (s * tcells) + ci
        in
        let edge = Grid.tile_edge in
        let decode code =
          let ci = code mod tcells in
          let origin = Grid.tile_origin grid slots.(code / tcells) in
          let lx = ci / (edge * edge) in
          let ly = ci / edge mod edge in
          let lz = ci mod edge in
          Vec3.make (origin.Vec3.x + lx) (origin.Vec3.y + ly)
            (origin.Vec3.z + lz)
        in
        let exempt = scr.exempt in
        Hashtbl.clear exempt;
        List.iter
          (fun s ->
            if Box3.contains region s then begin
              let c = encode s in
              if c >= 0 then Hashtbl.replace exempt c ()
            end)
          sources;
        let target_code = encode target in
        if target_code < 0 then None
        else begin
          Hashtbl.replace exempt target_code ();
          let passable p code =
            Hashtbl.mem exempt code
            || ((not (Grid.is_obstacle grid p))
               && ((not avoid_used)
                  || Grid.is_shared grid p
                  || Grid.usage grid p < Grid.capacity))
          in
          let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
          let touch (p : Vec3.t) code =
            if stamp.(code) <> gen then begin
              stamp.(code) <- gen;
              g_score.(code) <- max_int;
              parent.(code) <- -1;
              own.(code) <- false;
              h_cache.(code) <- abs (p.x - tx) + abs (p.y - ty) + abs (p.z - tz)
            end
          in
          let have_own = exclude <> [] in
          if have_own then
            List.iter
              (fun c ->
                if Box3.contains region c then begin
                  let code = encode c in
                  if code >= 0 then begin
                    touch c code;
                    own.(code) <- true
                  end
                end)
              exclude;
          List.iter
            (fun s ->
              if Box3.contains region s then begin
                let code = encode s in
                if code >= 0 && passable s code then begin
                  touch s code;
                  g_score.(code) <- 0;
                  Pqueue.push open_q h_cache.(code) code
                end
              end)
            sources;
          let found = ref false in
          let expansions = ref 0 in
          while (not !found) && (not (Pqueue.is_empty open_q))
                && !expansions < max_expansions do
            incr expansions;
            let f, code = Pqueue.pop open_q in
            let gp = g_score.(code) in
            if f <= gp + h_cache.(code) then begin
              if code = target_code then found := true
              else
                let p = decode code in
                List.iter
                  (fun q ->
                    if Box3.contains region q then begin
                      let qcode = encode q in
                      if qcode >= 0 && passable q qcode then begin
                        touch q qcode;
                        let tentative =
                          gp
                          +
                          if have_own && own.(qcode) then
                            Grid.enter_cost_d grid ~penalty ~dusage:(-1) q
                          else Grid.enter_cost grid ~penalty q
                        in
                        if tentative < g_score.(qcode) then begin
                          g_score.(qcode) <- tentative;
                          parent.(qcode) <- code;
                          Pqueue.push open_q (tentative + h_cache.(qcode)) qcode
                        end
                      end
                    end)
                  (Vec3.axis_neighbors p)
            end
          done;
          if not !found then None
          else begin
            let rec backtrack acc code =
              let acc = decode code :: acc in
              if parent.(code) = -1 then acc else backtrack acc parent.(code)
            in
            Some (backtrack [] target_code)
          end
        end
  end

let search_corridor ?scratch ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) grid ~region ~penalty ~sources ~target =
  match clip grid region target with
  | None -> None
  | Some region ->
    let scr = match scratch with Some s -> s | None -> create_scratch () in
    match coarse_corridor ~exclude scr grid ~region ~sources ~target with
    | None -> None
    | Some corridor ->
        fine_in_corridor ~max_expansions ~avoid_used ~exclude scr grid
          ~corridor ~region ~penalty ~sources ~target

let path_cost grid ~penalty = function
  | [] -> 0
  | _ :: rest ->
      List.fold_left (fun acc p -> acc + Grid.enter_cost grid ~penalty p) 0 rest
