(* Tests for the routing substrate: grid bookkeeping, A* optimality,
   PathFinder negotiation. *)

open Tqec_util
open Tqec_route

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let vec = Vec3.make

let grid10 () = Grid.create (Box3.make (vec 0 0 0) (vec 9 9 9))

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_usage_history () =
  let g = grid10 () in
  let p = vec 1 2 3 in
  check Alcotest.int "usage 0" 0 (Grid.usage g p);
  Grid.add_usage g p 2;
  check Alcotest.int "usage 2" 2 (Grid.usage g p);
  Grid.add_history g p 5;
  check Alcotest.int "history" 5 (Grid.history g p);
  (* cost = 1 + history + penalty * overuse(=2) *)
  check Alcotest.int "cost" (1 + 5 + (3 * 2)) (Grid.enter_cost g ~penalty:3 p);
  Grid.add_usage g p (-2);
  check Alcotest.int "usage back" 0 (Grid.usage g p)

let test_grid_negative_usage_rejected () =
  let g = grid10 () in
  Alcotest.check_raises "negative usage"
    (Invalid_argument "Grid.add_usage: negative usage") (fun () ->
      Grid.add_usage g (vec 0 0 0) (-1))

(* A rejected decrement must change nothing: not the cell's usage, not
   its tile's summaries, not the overused set — nor allocate the tile.
   A later legal increment then sees the true usage and overuses the
   cell. *)
let test_grid_rejected_usage_leaves_grid_unchanged () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 9 9 0)) in
  let c = vec 3 3 0 in
  let ti = Grid.tile_index g c in
  (try Grid.add_usage g c (-1) with Invalid_argument _ -> ());
  check Alcotest.int "usage unchanged" 0 (Grid.usage g c);
  check Alcotest.int "tile congestion unchanged" 0 (Grid.tile_congestion g ti);
  (* the 8x8x1 in-bounds part of the first tile *)
  check Alcotest.int "tile free unchanged" 64 (Grid.tile_free g ti);
  check Alcotest.int "overused unchanged" 0 (Grid.overused_count g);
  check Alcotest.int "no tile allocated" 0 (Grid.mem g).Grid.mem_tiles;
  Grid.add_usage g c 2;
  check Alcotest.int "usage 2" 2 (Grid.usage g c);
  check Alcotest.int "overused" 1 (Grid.overused_count g)

let test_grid_obstacles () =
  let g = grid10 () in
  Grid.set_obstacle g (vec 5 5 5);
  check Alcotest.bool "obstacle" true (Grid.is_obstacle g (vec 5 5 5));
  check Alcotest.bool "oob not obstacle" false (Grid.is_obstacle g (vec 99 0 0));
  Grid.set_obstacle_box g (Box3.make (vec 0 0 0) (vec 1 1 1));
  check Alcotest.bool "box corner" true (Grid.is_obstacle g (vec 1 1 1))

let test_grid_shared () =
  let g = grid10 () in
  let p = vec 2 2 2 in
  Grid.set_shared g p;
  Grid.add_usage g p 5;
  check Alcotest.(list bool) "not overused" []
    (List.map (fun _ -> true) (Grid.overused g));
  (* shared cell cost ignores congestion *)
  check Alcotest.int "shared cost" 1 (Grid.enter_cost g ~penalty:10 p)

let test_grid_overused () =
  let g = grid10 () in
  Grid.add_usage g (vec 1 1 1) 2;
  Grid.add_usage g (vec 2 2 2) 1;
  check Alcotest.int "one overused" 1 (List.length (Grid.overused g));
  check Alcotest.int "count agrees" 1 (Grid.overused_count g);
  Grid.add_usage g (vec 1 1 1) (-1);
  check Alcotest.int "drops back" 0 (Grid.overused_count g);
  Grid.add_usage g (vec 3 3 3) 4;
  Grid.set_shared g (vec 3 3 3);
  check Alcotest.int "shared leaves the set" 0 (Grid.overused_count g)

(* The incrementally maintained overused set must agree with a
   brute-force rescan of the whole volume after any usage/shared
   trajectory. *)
let prop_grid_overused_incremental =
  QCheck.Test.make ~name:"incremental overused set matches brute force"
    ~count:50
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let size = 5 in
      let box = Box3.make (vec 0 0 0) (vec (size - 1) (size - 1) (size - 1)) in
      let g = Grid.create box in
      for _ = 1 to 120 do
        let p = vec (Rng.int rng size) (Rng.int rng size) (Rng.int rng size) in
        match Rng.int rng 4 with
        | 0 -> Grid.set_shared g p
        | 1 -> if Grid.usage g p > 0 then Grid.add_usage g p (-1)
        | _ -> Grid.add_usage g p (1 + Rng.int rng 2)
      done;
      let brute =
        List.filter
          (fun c -> Grid.usage g c > Grid.capacity && not (Grid.is_shared g c))
          (Box3.cells box)
      in
      Grid.overused g = brute && Grid.overused_count g = List.length brute)

(* The sparse chunked grid against a dense mirror of its semantics:
   random usage/history/shared/obstacle trajectories must agree
   cell-for-cell on usage, history, obstacles and enter_cost (own-route
   [dusage] -1 and 0), and on the [overused] list in value AND order.
   The flat A* kernel's integer-coordinate queries ([passable_at],
   [enter_cost_at]) must agree with the [Vec3] ones on every cell, both
   on the mutated grid and on a fresh one whose tiles are all untouched;
   part of the box lies outside the die.  The box spans several tiles
   per axis with a non-zero, non-tile-aligned origin, so tile and offset
   arithmetic is exercised on both sides of every boundary.  Every
   tile's summaries ([tile_congestion], [tile_free], [tile_blocked]),
   which the coarse corridor search and the guided window growth read,
   must equal sums over the oracle arrays: the box is not a multiple of
   the tile edge, so boundary-clipped tiles are covered, and one of them
   is filled with obstacles so [tile_blocked] is seen true; the fresh
   grid's untouched tiles must read as empty. *)
let prop_grid_sparse_vs_dense_oracle =
  QCheck.Test.make ~name:"sparse grid matches dense oracle"
    ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let lo = vec 3 (-5) 2 in
      let nx = 20 and ny = 11 and nz = 9 in
      let hi = vec (3 + nx - 1) (-5 + ny - 1) (2 + nz - 1) in
      let box = Box3.make lo hi in
      let die = Box3.make lo (vec (3 + nx - 6) (-5 + ny - 3) (2 + nz - 2)) in
      let g = Grid.create ~die box in
      (* dense oracle state *)
      let cells = nx * ny * nz in
      let o_usage = Array.make cells 0 in
      let o_hist = Array.make cells 0 in
      let o_shared = Array.make cells false in
      let o_obst = Array.make cells false in
      let idx (c : Vec3.t) =
        (((c.Vec3.x - 3) * ny) + (c.Vec3.y + 5)) * nz + (c.Vec3.z - 2)
      in
      let rand_cell () =
        vec (3 + Rng.int rng nx) (-5 + Rng.int rng ny) (2 + Rng.int rng nz)
      in
      for _ = 1 to 300 do
        let c = rand_cell () in
        let i = idx c in
        (match Rng.int rng 5 with
        | 0 ->
            Grid.set_shared g c;
            o_shared.(i) <- true
        | 1 ->
            if Grid.usage g c > 0 then begin
              Grid.add_usage g c (-1);
              o_usage.(i) <- o_usage.(i) - 1
            end
        | 2 ->
            let d = 1 + Rng.int rng 3 in
            Grid.add_history g c d;
            o_hist.(i) <- o_hist.(i) + d
        | _ ->
            let d = 1 + Rng.int rng 2 in
            Grid.add_usage g c d;
            o_usage.(i) <- o_usage.(i) + d)
      done;
      for _ = 1 to 40 do
        let c = rand_cell () in
        Grid.set_obstacle g c;
        o_obst.(idx c) <- true
      done;
      (* tile directory, derived independently of the grid: ceil (n / edge)
         tiles per axis, x-major *)
      let edge = Grid.tile_edge in
      let tdy = (ny + edge - 1) / edge and tdz = (nz + edge - 1) / edge in
      let tdx = (nx + edge - 1) / edge in
      let tile_of (c : Vec3.t) =
        ((((c.Vec3.x - 3) / edge * tdy) + ((c.Vec3.y + 5) / edge)) * tdz)
        + ((c.Vec3.z - 2) / edge)
      in
      (* the far corner tile is clipped on every axis; obstacle all of it *)
      List.iter
        (fun c ->
          if tile_of c = (tdx * tdy * tdz) - 1 then begin
            Grid.set_obstacle g c;
            o_obst.(idx c) <- true
          end)
        (Box3.cells box);
      (* the integer-coordinate queries against the Vec3 ones *)
      let int_queries_agree g (c : Vec3.t) =
        List.for_all
          (fun avoid_used ->
            Grid.passable_at g ~avoid_used c.x c.y c.z
            = ((not (Grid.is_obstacle g c))
              && ((not avoid_used)
                 || Grid.is_shared g c
                 || Grid.usage g c < Grid.capacity)))
          [ false; true ]
        && List.for_all
             (fun dusage ->
               Grid.enter_cost_at g ~penalty:3 ~dusage c.x c.y c.z
               = Grid.enter_cost_d g ~penalty:3 ~dusage c)
             [ -1; 0 ]
      in
      let agree c =
        let i = idx c in
        let expected_cost ~dusage penalty =
          let base = if Box3.contains die c then 1 else 7 in
          if o_shared.(i) then base + o_hist.(i)
          else
            let over = o_usage.(i) + dusage + 1 - Grid.capacity in
            base + o_hist.(i) + (if over > 0 then penalty * over else 0)
        in
        Grid.usage g c = o_usage.(i)
        && Grid.history g c = o_hist.(i)
        && Grid.is_shared g c = o_shared.(i)
        && Grid.is_obstacle g c = o_obst.(i)
        && Grid.enter_cost g ~penalty:3 c = expected_cost ~dusage:0 3
        && Grid.enter_cost_d g ~penalty:3 ~dusage:(-1) c
           = expected_cost ~dusage:(-1) 3
        && int_queries_agree g c
      in
      let fresh = Grid.create ~die box in
      let brute =
        List.filter
          (fun c -> o_usage.(idx c) > Grid.capacity && not o_shared.(idx c))
          (Box3.cells box)
      in
      let n_tiles = tdx * tdy * tdz in
      let o_vol = Array.make n_tiles 0 in
      let o_cong = Array.make n_tiles 0 in
      let o_obst_n = Array.make n_tiles 0 in
      let o_used = Array.make n_tiles 0 in
      List.iter
        (fun c ->
          let i = idx c and t = tile_of c in
          o_vol.(t) <- o_vol.(t) + 1;
          o_cong.(t) <- o_cong.(t) + o_usage.(i) + o_hist.(i);
          o_used.(t) <- o_used.(t) + o_usage.(i);
          if o_obst.(i) then o_obst_n.(t) <- o_obst_n.(t) + 1)
        (Box3.cells box);
      let tiles_agree =
        List.for_all
          (fun t ->
            Grid.tile_congestion g t = o_cong.(t)
            && Grid.tile_free g t = max 0 (o_vol.(t) - o_obst_n.(t) - o_used.(t))
            && Grid.tile_blocked g t = (o_obst_n.(t) = o_vol.(t))
            (* untouched tiles read as empty *)
            && Grid.tile_congestion fresh t = 0
            && Grid.tile_free fresh t = o_vol.(t)
            && not (Grid.tile_blocked fresh t))
          (List.init n_tiles Fun.id)
      in
      List.for_all agree (Box3.cells box)
      && List.for_all (int_queries_agree fresh) (Box3.cells box)
      && Grid.overused g = brute
      && Grid.overused_count g = List.length brute
      && Grid.n_tiles g = n_tiles
      && Grid.tile_blocked g (n_tiles - 1)
      && tiles_agree)

let test_grid_mem_tracks_touched_tiles () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 63 63 63)) in
  let m0 = Grid.mem g in
  check Alcotest.int "fresh grid holds no tiles" 0 m0.Grid.mem_tiles;
  Grid.add_usage g (vec 0 0 0) 1;
  Grid.add_usage g (vec 1 1 1) 1;
  (* same tile: no new allocation *)
  Grid.add_usage g (vec 60 60 60) 1;
  let m = Grid.mem g in
  check Alcotest.int "two touched tiles" 2 m.Grid.mem_tiles;
  check Alcotest.bool "touched volume stays far below capacity" true
    (m.Grid.mem_touched_cells * 100 < m.Grid.mem_cells);
  check Alcotest.bool "directory covers the box" true
    (m.Grid.mem_tiles_total * Grid.tile_cells >= m.Grid.mem_cells)

let test_grid_die_cost () =
  let die = Box3.make (vec 0 0 0) (vec 4 4 4) in
  let g = Grid.create ~die (Box3.make (vec 0 0 0) (vec 9 9 9)) in
  let inside = Grid.enter_cost g ~penalty:1 (vec 1 1 1) in
  let outside = Grid.enter_cost g ~penalty:1 (vec 8 8 8) in
  check Alcotest.bool "outside costs more" true (outside > inside)

(* ------------------------------------------------------------------ *)
(* Astar                                                               *)
(* ------------------------------------------------------------------ *)

let full_region = Box3.make (vec 0 0 0) (vec 9 9 9)

let test_astar_straight_line () =
  let g = grid10 () in
  match
    Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
      ~target:(vec 5 0 0)
  with
  | None -> Alcotest.fail "expected a path"
  | Some path ->
      check Alcotest.int "shortest length" 6 (List.length path);
      check Alcotest.bool "starts at source" true
        (Vec3.equal (List.hd path) (vec 0 0 0));
      check Alcotest.bool "ends at target" true
        (Vec3.equal (List.nth path 5) (vec 5 0 0));
  (* Equal-cost ties: the kernel relaxes +x, -x, +y, -y, +z, -z in that
     order and pops equal keys first-in first-out, so of the many
     shortest diagonal paths it returns the x-then-y-then-z staircase,
     in either direction.  Routes stay bit-identical only while both
     rules hold. *)
  let staircase s t =
    Option.map
      (List.map Vec3.to_string)
      (Astar.search g ~region:full_region ~penalty:1 ~sources:[ s ] ~target:t)
  in
  check Alcotest.(option (list string)) "ascending tie-break"
    (Some [ "(1,1,1)"; "(2,1,1)"; "(3,1,1)"; "(3,2,1)"; "(3,3,1)"; "(3,3,2)";
            "(3,3,3)" ])
    (staircase (vec 1 1 1) (vec 3 3 3));
  check Alcotest.(option (list string)) "descending tie-break"
    (Some [ "(3,3,3)"; "(2,3,3)"; "(1,3,3)"; "(1,2,3)"; "(1,1,3)"; "(1,1,2)";
            "(1,1,1)" ])
    (staircase (vec 3 3 3) (vec 1 1 1))

let test_astar_detours_around_wall () =
  let g = grid10 () in
  (* wall at x=2 spanning all y,z except y=9 *)
  for y = 0 to 8 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 2 y z)
    done
  done;
  match
    Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
      ~target:(vec 4 0 0)
  with
  | None -> Alcotest.fail "expected detour"
  | Some path ->
      (* must pass through the y=9 gap *)
      check Alcotest.bool "visits gap row" true
        (List.exists (fun (p : Vec3.t) -> p.y = 9) path);
      (* path is a connected chain of unit steps *)
      let rec connected = function
        | a :: (b :: _ as rest) -> Vec3.manhattan a b = 1 && connected rest
        | _ -> true
      in
      check Alcotest.bool "connected" true (connected path)

let test_astar_unreachable () =
  let g = grid10 () in
  for y = 0 to 9 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 2 y z)
    done
  done;
  check Alcotest.bool "unreachable" true
    (Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
       ~target:(vec 4 0 0)
    = None)

let test_astar_respects_region () =
  let g = grid10 () in
  let region = Box3.make (vec 0 0 0) (vec 3 3 3) in
  check Alcotest.bool "target outside region" true
    (Astar.search g ~region ~penalty:1 ~sources:[ vec 0 0 0 ]
       ~target:(vec 5 0 0)
    = None)

(* A region disjoint from the grid reaches nothing: no kernel may fall
   back to searching the whole grid (the target lies in the grid, so
   such a fallback finds a path). *)
let test_astar_region_disjoint_from_grid () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 9 9 0)) in
  let region = Box3.make (vec 20 20 0) (vec 30 30 0) in
  let sources = [ vec 0 0 0 ] and target = vec 9 9 0 in
  let scr = Astar.create_scratch () in
  let all_tiles = List.init (Grid.n_tiles g) Fun.id in
  check Alcotest.bool "flat search" true
    (Astar.search g ~region ~penalty:1 ~sources ~target = None);
  check Alcotest.bool "coarse corridor" true
    (Astar.coarse_corridor scr g ~region ~sources ~target = None);
  check Alcotest.bool "fine pass over every tile" true
    (Astar.fine_in_corridor scr g ~corridor:all_tiles ~region ~penalty:1
       ~sources ~target
    = None);
  check Alcotest.bool "hierarchical search" true
    (Astar.search_corridor g ~region ~penalty:1 ~sources ~target = None)

let test_astar_source_target_exempt () =
  let g = grid10 () in
  Grid.set_obstacle g (vec 0 0 0);
  Grid.set_obstacle g (vec 3 0 0);
  match
    Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
      ~target:(vec 3 0 0)
  with
  | None -> Alcotest.fail "pins must be reachable"
  | Some path -> check Alcotest.int "length" 4 (List.length path)

let test_astar_multi_source () =
  let g = grid10 () in
  match
    Astar.search g ~region:full_region ~penalty:1
      ~sources:[ vec 0 0 0; vec 9 9 9; vec 5 1 0 ]
      ~target:(vec 5 0 0)
  with
  | None -> Alcotest.fail "expected path"
  | Some path ->
      (* picks the closest source *)
      check Alcotest.int "short path" 2 (List.length path);
      check Alcotest.bool "from nearest" true
        (Vec3.equal (List.hd path) (vec 5 1 0))

(* A* path cost equals Dijkstra-optimal cost on random congested grids. *)
let prop_astar_optimal_vs_dijkstra =
  QCheck.Test.make ~name:"A* matches Dijkstra cost on random grids" ~count:25
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let size = 6 in
      let box = Box3.make (vec 0 0 0) (vec (size - 1) (size - 1) (size - 1)) in
      let g = Grid.create box in
      (* random usage bumps make non-uniform costs *)
      for _ = 1 to 40 do
        let p = vec (Rng.int rng size) (Rng.int rng size) (Rng.int rng size) in
        Grid.add_usage g p 1
      done;
      for _ = 1 to 10 do
        let p = vec (Rng.int rng size) (Rng.int rng size) (Rng.int rng size) in
        if not (Vec3.equal p (vec 0 0 0)) then Grid.set_obstacle g p
      done;
      let target = vec (size - 1) (size - 1) (size - 1) in
      let source = vec 0 0 0 in
      let astar_cost =
        match
          Astar.search g ~region:box ~penalty:2 ~sources:[ source ] ~target
        with
        | Some path -> Some (Astar.path_cost g ~penalty:2 path)
        | None -> None
      in
      (* plain Dijkstra oracle *)
      let dist = Hashtbl.create 64 in
      let q = Pqueue.create () in
      Hashtbl.replace dist source 0;
      Pqueue.push q 0 source;
      let passable p =
        Box3.contains box p
        && ((not (Grid.is_obstacle g p)) || Vec3.equal p target || Vec3.equal p source)
      in
      while not (Pqueue.is_empty q) do
        let d, p = Pqueue.pop q in
        if d <= (try Hashtbl.find dist p with Not_found -> max_int) then
          List.iter
            (fun n ->
              if passable n then begin
                let nd = d + Grid.enter_cost g ~penalty:2 n in
                let old = try Hashtbl.find dist n with Not_found -> max_int in
                if nd < old then begin
                  Hashtbl.replace dist n nd;
                  Pqueue.push q nd n
                end
              end)
            (Vec3.axis_neighbors p)
      done;
      let dijkstra_cost = Hashtbl.find_opt dist target in
      astar_cost = dijkstra_cost)

(* ------------------------------------------------------------------ *)
(* Pathfinder                                                          *)
(* ------------------------------------------------------------------ *)

let test_pathfinder_simple_net () =
  let g = grid10 () in
  let nets =
    [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 5 5 0; vec 9 0 0 ] } ]
  in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "success" true r.Pathfinder.success;
  check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets)

let test_pathfinder_negotiates_conflict () =
  (* two nets whose straight paths collide in a narrow corridor *)
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 9 2 1)) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 1 0; vec 9 1 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 1 1; vec 9 1 1 ] };
      { Pathfinder.net_id = 2; pins = [ vec 0 0 0; vec 9 2 1 ] };
    ]
  in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "resolved" true r.Pathfinder.success;
  check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets)

let test_pathfinder_single_pin_net () =
  let g = grid10 () in
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 3 3 3 ] } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "success" true r.Pathfinder.success

let test_pathfinder_unroutable () =
  let g = grid10 () in
  (* wall isolating the target completely *)
  for y = 0 to 9 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 5 y z)
    done
  done;
  let nets = [ { Pathfinder.net_id = 7; pins = [ vec 0 0 0; vec 9 0 0 ] } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "failure reported" false r.Pathfinder.success;
  check Alcotest.(list int) "unrouted id" [ 7 ] r.Pathfinder.unrouted

(* ------------------------------------------------------------------ *)
(* Validator blind spots: planted illegal routes must be rejected      *)
(* ------------------------------------------------------------------ *)

let planted_result routes =
  {
    Pathfinder.routes;
    success = true;
    iterations_used = 1;
    overused_after = 0;
    unrouted = [];
  }

let has_error fragment errors =
  List.exists
    (fun e ->
      let rec find i =
        i + String.length fragment <= String.length e
        && (String.sub e i (String.length fragment) = fragment || find (i + 1))
      in
      find 0)
    errors

let test_validate_rejects_obstacle_crossing () =
  let g = grid10 () in
  Grid.set_obstacle g (vec 2 0 0);
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 4 0 0 ] } ] in
  let r =
    planted_result
      [
        {
          Pathfinder.r_net = 0;
          r_cells = List.init 5 (fun x -> vec x 0 0);
        };
      ]
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "obstacle crossing detected" true
    (has_error "obstacle" errors)

let test_validate_allows_obstacle_pins () =
  (* pins on obstacle cells are the one legal exemption (A* exempts
     sources and target), so they must not be flagged *)
  let g = grid10 () in
  Grid.set_obstacle g (vec 0 0 0);
  Grid.set_obstacle g (vec 3 0 0);
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 3 0 0 ] } ] in
  let r =
    planted_result
      [ { Pathfinder.r_net = 0; r_cells = List.init 4 (fun x -> vec x 0 0) } ]
  in
  check Alcotest.(list string) "pin obstacles exempt" []
    (Pathfinder.validate g r nets)

let test_validate_rejects_out_of_bounds () =
  let g = grid10 () in
  let nets = [ { Pathfinder.net_id = 3; pins = [ vec 0 0 0; vec 1 0 0 ] } ] in
  let r =
    planted_result
      [
        {
          Pathfinder.r_net = 3;
          (* a connected chain that dips below the grid floor *)
          r_cells = [ vec 0 0 0; vec 0 0 (-1); vec 1 0 (-1); vec 1 0 0 ];
        };
      ]
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "escape detected" true
    (has_error "leaves the routing grid" errors)

let test_validate_rejects_overcapacity () =
  let g = grid10 () in
  let straight = List.init 4 (fun x -> vec x 0 0) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 3 0 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 1 0; vec 3 1 0 ] };
    ]
  in
  let r =
    planted_result
      [
        { Pathfinder.r_net = 0; r_cells = straight };
        (* net 1 detours through net 0's row: every straight cell is
           doubly used without being shared *)
        {
          Pathfinder.r_net = 1;
          r_cells = (vec 0 1 0 :: straight) @ [ vec 3 1 0 ];
        };
      ]
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "capacity violation detected" true
    (has_error "capacity" errors);
  check Alcotest.bool "accounting mismatch detected" true
    (has_error "overuse accounting" errors);
  (* shared cells lift the capacity limit: the same routes become legal
     once the contested row is marked shared and the overuse is owned *)
  List.iter (Grid.set_shared g) straight;
  check Alcotest.(list string) "shared row legal" []
    (Pathfinder.validate g r nets)

let test_validate_accounting_must_match () =
  (* a result that under-reports its residual overuse is rejected even
     when it does not claim success *)
  let g = grid10 () in
  let straight = List.init 2 (fun x -> vec x 0 0) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 1 0 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 0 0; vec 1 0 0 ] };
    ]
  in
  let r =
    {
      Pathfinder.routes =
        [
          { Pathfinder.r_net = 0; r_cells = straight };
          { Pathfinder.r_net = 1; r_cells = straight };
        ];
      success = false;
      iterations_used = 1;
      overused_after = 0;
      unrouted = [];
    }
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "accounting enforced" true
    (has_error "overuse accounting" errors);
  check Alcotest.(list string) "honest accounting accepted" []
    (Pathfinder.validate g { r with Pathfinder.overused_after = 2 } nets)

(* ------------------------------------------------------------------ *)
(* Negotiation under congestion                                        *)
(* ------------------------------------------------------------------ *)

(* The [route_all] contract "[grid] retains the final usage state": every
   cell's usage is the number of returned routes covering it, and the
   grid's overuse count is the reported [overused_after]. *)
let grid_matches_routes g (r : Pathfinder.result) =
  let cover = Hashtbl.create 64 in
  List.iter
    (fun (rt : Pathfinder.routed) ->
      List.iter
        (fun c ->
          Hashtbl.replace cover c
            (1 + Option.value ~default:0 (Hashtbl.find_opt cover c)))
        rt.Pathfinder.r_cells)
    r.Pathfinder.routes;
  List.for_all
    (fun c ->
      Grid.usage g c = Option.value ~default:0 (Hashtbl.find_opt cover c))
    (Box3.cells (Grid.box g))
  && Grid.overused_count g = r.Pathfinder.overused_after

(* A congested scenario that needs several negotiation iterations, so the
   batch path really runs: five nets crossing a narrow slab of
   height [ymax + 1].  ymax = 4 is routable after real negotiation;
   ymax = 2 is over capacity and exercises the saturated endgame. *)
let congested_scenario ymax =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 11 ymax 1)) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 1 0; vec 11 1 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 1 1; vec 11 1 1 ] };
      { Pathfinder.net_id = 2; pins = [ vec 0 0 0; vec 11 ymax 1 ] };
      { Pathfinder.net_id = 3; pins = [ vec 0 ymax 0; vec 11 0 1 ] };
      { Pathfinder.net_id = 4; pins = [ vec 0 0 1; vec 11 ymax 0 ] };
    ]
  in
  (g, nets)

let route_congested ?(config = Pathfinder.default_config) ymax =
  let g, nets = congested_scenario ymax in
  let r = Pathfinder.route_all g config nets in
  check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets);
  check Alcotest.bool "grid retains the final usage" true
    (grid_matches_routes g r);
  r

(* The slab is routable, but only after real negotiation. *)
let test_pathfinder_congested_converges () =
  let r = route_congested 4 in
  check Alcotest.bool "negotiation really iterated" true
    (r.Pathfinder.iterations_used > 1);
  check Alcotest.bool "negotiation converged" true r.Pathfinder.success

(* A slab that is genuinely over capacity: the overuse accounting must
   stay honest even when negotiation cannot converge. *)
let test_pathfinder_congested_saturates () =
  let r = route_congested 2 in
  check Alcotest.bool "saturation reported" true
    (r.Pathfinder.overused_after > 0 && not r.Pathfinder.success)

(* ------------------------------------------------------------------ *)
(* Hierarchical corridor search                                        *)
(* ------------------------------------------------------------------ *)

(* Planted fixture for the corridor fallback: a straight source→target
   line whose coarse corridor (the tile row plus its one-tile ring,
   y < 16) is severed by a wall at x = 16; the only gap lies at y ≥ 16,
   outside the corridor.  The coarse search cannot see the wall (no
   tile is fully obstacled), so it confidently picks the straight
   corridor — and the fine pass must fail, forcing the full-window
   fallback. *)
let corridor_wall_fixture () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 31 23 7)) in
  for y = 0 to 15 do
    for z = 0 to 7 do
      Grid.set_obstacle g (vec 16 y z)
    done
  done;
  g

let test_corridor_infeasible_reports_none () =
  let g = corridor_wall_fixture () in
  let region = Grid.box g in
  let sources = [ vec 0 4 4 ] and target = vec 31 4 4 in
  check Alcotest.bool "corridor infeasible" true
    (Astar.search_corridor g ~region ~penalty:2 ~sources ~target = None);
  match Astar.search g ~region ~penalty:2 ~sources ~target with
  | None -> Alcotest.fail "flat search must find the gap detour"
  | Some path ->
      check Alcotest.bool "detour leaves the corridor" true
        (List.exists (fun (c : Vec3.t) -> c.Vec3.y >= 16) path)

(* The acceptance-critical regression: with the hierarchical path forced
   on ([corridor_cells = 0]) over the planted fixture, the corridor
   fails, the router falls back to the full-window search, and the
   resulting routes are bit-identical to the flat ([corridor_cells =
   max_int]) configuration. *)
let test_corridor_fallback_matches_flat_route () =
  let run corridor_cells =
    let g = corridor_wall_fixture () in
    let nets =
      [ { Pathfinder.net_id = 0; pins = [ vec 0 4 4; vec 31 4 4 ] } ]
    in
    let r =
      Pathfinder.route_all g
        { Pathfinder.default_config with corridor_cells }
        nets
    in
    check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets);
    r
  in
  let flat = run max_int in
  let hier = run 0 in
  check Alcotest.bool "routes bit-identical" true (flat = hier);
  check Alcotest.bool "routed" true flat.Pathfinder.success

(* On an empty (hence congestion-free) multi-tile grid the corridor must
   contain a minimal path: hierarchical and flat searches agree on
   cost. *)
let test_corridor_minimal_when_feasible () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 63 63 15)) in
  let region = Grid.box g in
  let sources = [ vec 1 2 3 ] and target = vec 60 50 12 in
  match Astar.search_corridor g ~region ~penalty:2 ~sources ~target with
  | None -> Alcotest.fail "corridor search failed on an empty grid"
  | Some path ->
      let flat =
        match Astar.search g ~region ~penalty:2 ~sources ~target with
        | Some p -> p
        | None -> Alcotest.fail "flat search failed on an empty grid"
      in
      check Alcotest.int "same cost as flat A*"
        (Astar.path_cost g ~penalty:2 flat)
        (Astar.path_cost g ~penalty:2 path)

(* The congested negotiation still converges with the hierarchical path
   forced on for every search. *)
let test_corridor_congested_converges () =
  let r =
    route_congested
      ~config:{ Pathfinder.default_config with corridor_cells = 0 }
      4
  in
  check Alcotest.bool "converged" true r.Pathfinder.success

(* Corridor-widening regression: when the margin-inflated corridor
   already covers the whole grid, the escalation must stop after one
   failed search instead of repeating it — and still report the net
   unrouted. *)
let test_pathfinder_unroutable_wide_corridor () =
  let g = grid10 () in
  for y = 0 to 9 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 5 y z)
    done
  done;
  (* pins span the full grid, so even the first corridor covers it *)
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 9 9 9 ] } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "failure reported" false r.Pathfinder.success;
  check Alcotest.(list int) "unrouted id" [ 0 ] r.Pathfinder.unrouted

let prop_pathfinder_random_nets_valid =
  QCheck.Test.make ~name:"pathfinder routes random nets validly" ~count:15
    (QCheck.int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Grid.create (Box3.make (vec 0 0 0) (vec 11 11 3)) in
      let random_pin () = vec (Rng.int rng 12) (Rng.int rng 12) (Rng.int rng 4) in
      let nets =
        List.init 6 (fun i ->
            {
              Pathfinder.net_id = i;
              pins = List.init (2 + Rng.int rng 3) (fun _ -> random_pin ());
            })
      in
      List.iter
        (fun (n : Pathfinder.net) -> List.iter (Grid.set_shared g) n.Pathfinder.pins)
        nets;
      let r = Pathfinder.route_all g Pathfinder.default_config nets in
      r.Pathfinder.success
      && Pathfinder.validate g r nets = []
      && grid_matches_routes g r)

(* The Steiner tree grows in Prim order: nearest pin first, ties broken
   by coordinates.  So the order in which a net lists its pins after the
   first (the tree's root) must not matter: a pick that broke ties by
   list position would change routes here. *)
let prop_pathfinder_pin_order_invariant =
  QCheck.Test.make ~name:"Prim order ignores non-root pin listing" ~count:25
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nx = 6 + Rng.int rng 7 and ny = 6 + Rng.int rng 7 in
      let nz = 1 + Rng.int rng 3 in
      let random_cell () =
        vec (Rng.int rng nx) (Rng.int rng ny) (Rng.int rng nz)
      in
      let obstacles = List.init (nx * ny * nz / 8) (fun _ -> random_cell ()) in
      let nets =
        List.init (1 + Rng.int rng 4) (fun i ->
            {
              Pathfinder.net_id = i;
              pins = List.init (3 + Rng.int rng 10) (fun _ -> random_cell ());
            })
      in
      let shuffled =
        List.map
          (fun (n : Pathfinder.net) ->
            match n.Pathfinder.pins with
            | root :: rest ->
                let a = Array.of_list rest in
                Rng.shuffle rng a;
                { n with Pathfinder.pins = root :: Array.to_list a }
            | [] -> n)
          nets
      in
      let route nets =
        let g =
          Grid.create (Box3.make (vec 0 0 0) (vec (nx - 1) (ny - 1) (nz - 1)))
        in
        List.iter (Grid.set_obstacle g) obstacles;
        List.iter
          (fun (n : Pathfinder.net) ->
            List.iter (Grid.set_shared g) n.Pathfinder.pins)
          nets;
        Pathfinder.route_all g Pathfinder.default_config nets
      in
      let a = route nets and b = route shuffled in
      a.Pathfinder.routes = b.Pathfinder.routes
      && a.Pathfinder.success = b.Pathfinder.success
      && a.Pathfinder.iterations_used = b.Pathfinder.iterations_used)

(* Golden many-pin route: one 48-pin net on a 32x32x2 grid with seeded
   obstacles.  The digest pins the exact cell list, so a change to the
   Prim pin order, the search windows or the A* tie-breaks shows here. *)
let test_pathfinder_golden_many_pin () =
  let rng = Random.State.make [| 48 |] in
  let random_cell () =
    vec (Random.State.int rng 32) (Random.State.int rng 32)
      (Random.State.int rng 2)
  in
  let pins = List.init 48 (fun _ -> random_cell ()) in
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 31 31 1)) in
  for _ = 1 to 200 do
    let c = random_cell () in
    if not (List.exists (Vec3.equal c) pins) then Grid.set_obstacle g c
  done;
  let nets = [ { Pathfinder.net_id = 0; pins } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.(list string) "legal" [] (Pathfinder.validate g r nets);
  check Alcotest.bool "routed" true r.Pathfinder.success;
  let cells =
    match r.Pathfinder.routes with
    | [ route ] -> route.Pathfinder.r_cells
    | _ -> Alcotest.fail "expected exactly one route"
  in
  let printed = String.concat " " (List.map Vec3.to_string cells) in
  check Alcotest.string "route digest" "48d115fec12bf1557c1f3e2d14b9e755"
    (Digest.to_hex (Digest.string printed))

(* ------------------------------------------------------------------ *)
(* End-to-end: route-stage jobs invariance on suite circuits           *)
(* ------------------------------------------------------------------ *)

module Suite = Tqec_circuit.Suite
module Pipeline = Tqec_compress.Pipeline

let run_suite_pipeline name factor jobs =
  let entry =
    match Suite.find name with
    | Some e -> e
    | None -> Alcotest.failf "unknown suite benchmark %s" name
  in
  let circuit = Suite.scaled ~factor entry in
  Pipeline.run
    ~config:
      {
        Pipeline.default_config with
        effort = Tqec_place.Placer.Quick;
        seed = 42;
        jobs;
      }
    circuit

(* The full-flow mirror of the router determinism test, on two suite
   circuits: the routing stage (and thus the whole result) is identical
   under TQEC_JOBS=1 and TQEC_JOBS=4. *)
let test_pipeline_route_jobs_invariant name factor () =
  let serial = run_suite_pipeline name factor (Some 1) in
  let parallel = run_suite_pipeline name factor (Some 4) in
  check Alcotest.(list string) "parallel pipeline sound" []
    (Tqec_verify.Violation.to_strings (Pipeline.verify parallel));
  check Alcotest.bool "identical routing" true
    (serial.Pipeline.routing = parallel.Pipeline.routing);
  check Alcotest.int "identical volume" serial.Pipeline.volume
    parallel.Pipeline.volume;
  check Alcotest.bool "routing succeeded" true
    serial.Pipeline.routing.Pathfinder.success

let suites =
  [
    ( "route.grid",
      [
        Alcotest.test_case "usage/history" `Quick test_grid_usage_history;
        Alcotest.test_case "negative usage rejected" `Quick
          test_grid_negative_usage_rejected;
        Alcotest.test_case "rejected usage leaves grid unchanged" `Quick
          test_grid_rejected_usage_leaves_grid_unchanged;
        Alcotest.test_case "obstacles" `Quick test_grid_obstacles;
        Alcotest.test_case "shared cells" `Quick test_grid_shared;
        Alcotest.test_case "overused" `Quick test_grid_overused;
        Alcotest.test_case "die cost" `Quick test_grid_die_cost;
        Alcotest.test_case "mem tracks touched tiles" `Quick
          test_grid_mem_tracks_touched_tiles;
        qtest prop_grid_overused_incremental;
        qtest prop_grid_sparse_vs_dense_oracle;
      ] );
    ( "route.astar",
      [
        Alcotest.test_case "straight line" `Quick test_astar_straight_line;
        Alcotest.test_case "detours" `Quick test_astar_detours_around_wall;
        Alcotest.test_case "unreachable" `Quick test_astar_unreachable;
        Alcotest.test_case "respects region" `Quick test_astar_respects_region;
        Alcotest.test_case "region disjoint from grid" `Quick
          test_astar_region_disjoint_from_grid;
        Alcotest.test_case "pins exempt" `Quick test_astar_source_target_exempt;
        Alcotest.test_case "multi-source" `Quick test_astar_multi_source;
        qtest prop_astar_optimal_vs_dijkstra;
      ] );
    ( "route.pathfinder",
      [
        Alcotest.test_case "simple net" `Quick test_pathfinder_simple_net;
        Alcotest.test_case "negotiates" `Quick test_pathfinder_negotiates_conflict;
        Alcotest.test_case "single pin" `Quick test_pathfinder_single_pin_net;
        Alcotest.test_case "unroutable" `Quick test_pathfinder_unroutable;
        Alcotest.test_case "unroutable, grid-wide corridor" `Quick
          test_pathfinder_unroutable_wide_corridor;
        Alcotest.test_case "congested converges" `Quick
          test_pathfinder_congested_converges;
        Alcotest.test_case "congested saturates" `Quick
          test_pathfinder_congested_saturates;
        Alcotest.test_case "golden many-pin route" `Quick
          test_pathfinder_golden_many_pin;
        qtest prop_pathfinder_random_nets_valid;
        qtest prop_pathfinder_pin_order_invariant;
      ] );
    ( "route.corridor",
      [
        Alcotest.test_case "infeasible corridor reports none" `Quick
          test_corridor_infeasible_reports_none;
        Alcotest.test_case "fallback matches flat route" `Quick
          test_corridor_fallback_matches_flat_route;
        Alcotest.test_case "minimal when feasible" `Quick
          test_corridor_minimal_when_feasible;
        Alcotest.test_case "negotiates when forced" `Quick
          test_corridor_congested_converges;
      ] );
    ( "route.validate",
      [
        Alcotest.test_case "rejects obstacle crossing" `Quick
          test_validate_rejects_obstacle_crossing;
        Alcotest.test_case "allows obstacle pins" `Quick
          test_validate_allows_obstacle_pins;
        Alcotest.test_case "rejects out-of-bounds" `Quick
          test_validate_rejects_out_of_bounds;
        Alcotest.test_case "rejects overcapacity" `Quick
          test_validate_rejects_overcapacity;
        Alcotest.test_case "accounting must match" `Quick
          test_validate_accounting_must_match;
      ] );
    ( "route.parallel-pipeline",
      [
        Alcotest.test_case "4gt10-v1_81 jobs invariant" `Slow
          (test_pipeline_route_jobs_invariant "4gt10-v1_81" 4);
        Alcotest.test_case "4gt4-v0_73 jobs invariant" `Slow
          (test_pipeline_route_jobs_invariant "4gt4-v0_73" 8);
      ] );
  ]
