(* Route-stress harness: runs the strengthened routing validators over
   benchmark-suite geometries and fails (exit 1) on any legality error,
   so routing regressions break `dune runtest` via the @route-stress
   alias.

   Each instance runs the full flow at quick effort, then re-checks the
   result with [Pipeline.verify] — placement overlap, routing
   connectivity/pin coverage, obstacle and bounds legality, capacity and
   overuse accounting — and finally cross-checks the whole flow's
   determinism by re-running it under a different worker count.

   Environment:
     TQEC_STRESS_BENCHMARKS = comma-separated suite names
                              (default: the two smallest instances)
     TQEC_STRESS_SCALE      = instance scale divisor (default 4)
     TQEC_SEED              = random seed (default 42) *)

module Suite = Tqec_circuit.Suite
module Pipeline = Tqec_compress.Pipeline
module Pathfinder = Tqec_route.Pathfinder

let benchmarks =
  match Sys.getenv_opt "TQEC_STRESS_BENCHMARKS" with
  | Some s -> String.split_on_char ',' s |> List.map String.trim
  | None -> [ "4gt10-v1_81"; "4gt4-v0_73" ]

let scale =
  match Sys.getenv_opt "TQEC_STRESS_SCALE" with
  | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> v | _ -> 4)
  | None -> 4

let seed =
  match Sys.getenv_opt "TQEC_SEED" with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> 42)
  | None -> 42

let run_one name =
  match Suite.find name with
  | None ->
      Printf.eprintf "[route-stress] unknown benchmark %s (suite: %s)\n%!" name
        (String.concat ", " Suite.names);
      false
  | Some entry ->
      let circuit = Suite.scaled ~factor:scale entry in
      let run jobs =
        Pipeline.run
          ~config:
            {
              Pipeline.default_config with
              effort = Tqec_place.Placer.Quick;
              seed;
              jobs;
            }
          circuit
      in
      let r = run (Some 1) in
      let issues = Tqec_verify.Violation.to_strings (Pipeline.verify r) in
      let routed = r.Pipeline.routing.Pathfinder.success in
      let deterministic =
        (run (Some 4)).Pipeline.routing = r.Pipeline.routing
      in
      Printf.printf
        "[route-stress] %-18s volume=%-9d nets-routed=%b iterations=%d \
         overused=%d validator-errors=%d jobs-invariant=%b\n%!"
        (circuit.Tqec_circuit.Circuit.name)
        r.Pipeline.volume routed
        r.Pipeline.routing.Pathfinder.iterations_used
        r.Pipeline.routing.Pathfinder.overused_after (List.length issues)
        deterministic;
      List.iter (fun e -> Printf.eprintf "[route-stress]   error: %s\n%!" e) issues;
      if not deterministic then
        Printf.eprintf
          "[route-stress]   error: routing differs between jobs=1 and jobs=4\n%!";
      issues = [] && routed && deterministic

(* Sparse-substrate fixture: a routing box far larger than the occupied
   skeleton — the tentpole's asymptotic regime.  A 96x96x64 substrate
   (~590k cells) carries 24 long nets confined near the z=1 plane,
   threaded through gaps in an obstacle wall.  Shared between the
   sparse-grid stress and the steady-state scratch check below. *)
module Grid = Tqec_route.Grid
module Box3 = Tqec_util.Box3
module Vec3 = Tqec_util.Vec3

let sparse_box = Box3.make Vec3.zero (Vec3.make 95 95 63)

let sparse_nets =
  List.init 24 (fun i ->
      let x = (4 * i) + 1 in
      {
        Pathfinder.net_id = i;
        pins = [ Vec3.make x 2 1; Vec3.make x 93 1 ];
      })

let mk_sparse_grid () =
  let g = Grid.create sparse_box in
  (* obstacle wall across the die at y=48, z=0..3, with gaps every
     16 columns: every net detours through a shared gap *)
  for x = 0 to 95 do
    if x mod 16 <> 4 then
      for z = 0 to 3 do
        Grid.set_obstacle g (Vec3.make x 48 z)
      done
  done;
  List.iter
    (fun (n : Pathfinder.net) ->
      List.iter (Grid.set_shared g) n.Pathfinder.pins)
    sparse_nets;
  g

let route_sparse ~corridor_cells () =
  let g = mk_sparse_grid () in
  let r =
    Pathfinder.route_all g
      { Pathfinder.default_config with corridor_cells }
      sparse_nets
  in
  (g, r)

(* The sparse grid must materialize only the touched slab (the z-tile
   row the routes live in), and the hierarchical corridor path (forced
   with corridor_cells = 0) must stay legal. *)
let sparse_substrate () =
  let g_flat, flat = route_sparse ~corridor_cells:max_int () in
  let g_corr, corr = route_sparse ~corridor_cells:0 () in
  let nets = sparse_nets in
  let flat_issues = Pathfinder.validate g_flat flat nets in
  let corr_issues = Pathfinder.validate g_corr corr nets in
  let m = Grid.mem g_corr in
  (* the substrate is 8 z-tile rows; the routes live in the bottom one *)
  let sparse = m.Grid.mem_touched_cells * 4 < m.Grid.mem_cells in
  Printf.printf
    "[route-stress] sparse-substrate    routed=%b/%b corridor-legal=%d \
     flat-legal=%d touched=%d/%d cells (%.1f%%) sparse=%b\n%!"
    flat.Pathfinder.success corr.Pathfinder.success
    (List.length corr_issues) (List.length flat_issues)
    m.Grid.mem_touched_cells m.Grid.mem_cells
    (100. *. float_of_int m.Grid.mem_touched_cells
     /. float_of_int (max 1 m.Grid.mem_cells))
    sparse;
  List.iter
    (fun e -> Printf.eprintf "[route-stress]   corridor error: %s\n%!" e)
    corr_issues;
  List.iter
    (fun e -> Printf.eprintf "[route-stress]   flat error: %s\n%!" e)
    flat_issues;
  if not sparse then
    Printf.eprintf
      "[route-stress]   error: sparse grid materialized most of the \
       substrate\n%!";
  flat.Pathfinder.success && corr.Pathfinder.success && flat_issues = []
  && corr_issues = [] && sparse

(* Steady-state scratch: the per-domain A* workspace persists in
   domain-local storage and is warmed by a first forced-corridor run
   (the full grid-box escalation step sizes it to the largest region),
   so a repeat run, widening ladder included, must not reallocate any
   score array. *)
let steady_scratch () =
  let module Counters = Tqec_route.Counters in
  ignore (route_sparse ~corridor_cells:0 ());
  Counters.reset ();
  let _, warm = route_sparse ~corridor_cells:0 () in
  let grows = (Counters.stats ()).Counters.scratch_grows in
  Printf.printf
    "[route-stress] steady-scratch     routed=%b scratch-grows=%d\n%!"
    warm.Pathfinder.success grows;
  if grows > 0 then
    Printf.eprintf
      "[route-stress]   error: %d scratch reallocations on a steady-state \
       re-route (want 0)\n%!"
      grows;
  warm.Pathfinder.success && grows = 0

(* Allocation gates.  [Gc.minor_words] repeats exactly for the same
   single-domain computation, so these are work counts, not walls: they
   pin that the flat A* kernel, geometry emission and the Steiner
   bookkeeping around each connection stay free of per-step
   allocation. *)
module Astar = Tqec_route.Astar

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, int_of_float (Gc.minor_words () -. before))

(* Pops [search ~max_expansions] needs to succeed: the least budget
   that returns a path (the search is deterministic, so success is
   monotone in the budget). *)
let expansions_needed search =
  let rec go lo hi =
    (* invariant: budget [lo] fails, budget [hi] succeeds *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if search ~max_expansions:mid <> None then go lo mid else go mid hi
  in
  go 0 400_000

(* Gate 1: on a warmed scratch, a short straight search and a long
   detour around a wall — expansion counts at least 10x apart — allocate
   minor words that differ by at most a constant plus a few words per
   path cell (the returned list and its [Vec3.t]s).  A kernel that
   allocates per expansion fails by thousands of words. *)
let astar_allocation_gate () =
  let g = Grid.create (Box3.make Vec3.zero (Vec3.make 39 39 0)) in
  for y = 1 to 38 do
    Grid.set_obstacle g (Vec3.make 20 y 0)
  done;
  let region = Grid.box g in
  let scratch = Astar.create_scratch () in
  let search ~target ~max_expansions =
    Astar.search ~scratch ~max_expansions g ~region ~penalty:4
      ~sources:[ Vec3.make 18 20 0 ] ~target
  in
  let short = search ~target:(Vec3.make 18 26 0)
  and detour = search ~target:(Vec3.make 22 20 0) in
  let x_short = expansions_needed short
  and x_detour = expansions_needed detour in
  let measure s =
    ignore (s ~max_expansions:400_000);
    match minor_words_of (fun () -> s ~max_expansions:400_000) with
    | Some path, words -> (List.length path, words)
    | None, _ -> (0, max_int)
  in
  let len_short, w_short = measure short in
  let len_detour, w_detour = measure detour in
  let per_cell = 8 and constant = 256 in
  let bound = constant + (per_cell * (len_short + len_detour)) in
  let spread = x_detour >= 10 * x_short in
  let flat = abs (w_detour - w_short) <= bound in
  Printf.printf
    "[route-stress] astar-alloc        expansions=%d/%d path=%d/%d      minor-words=%d/%d bound=%d spread=%b flat=%b\n%!"
    x_short x_detour len_short len_detour w_short w_detour bound spread flat;
  if not spread then
    Printf.eprintf
      "[route-stress]   error: gate searches expand %d vs %d cells (want \
       >= 10x apart)\n%!"
      x_short x_detour;
  if not flat then
    Printf.eprintf
      "[route-stress]   error: flat A* allocation grows with expansions \
       (%d vs %d minor words, bound %d)\n%!"
      w_short w_detour bound;
  spread && flat

(* Gate 2: emission minor words per defect on a tier-x1 circuit stay
   within 2x of those on a quarter-size circuit of the same family:
   linear emission keeps the per-defect cost flat, a quadratic one
   scales it with the circuit (about 4x here). *)
let emit_allocation_gate () =
  let module Generator = Tqec_circuit.Generator in
  let module Emit_core = Tqec_compress.Emit_core in
  let quarter =
    Generator.generate
      {
        Generator.name = "tier-x1/4";
        n_wires = 10;
        n_toffoli = 1;
        n_cnot = 8;
        n_not = 1;
        n_unused = 0;
        seed = 4100;
      }
  in
  let per_defect circuit =
    let r =
      Pipeline.run
        ~config:
          {
            Pipeline.default_config with
            effort = Tqec_place.Placer.Quick;
            seed;
            jobs = Some 1;
          }
        circuit
    in
    let emit () =
      Emit_core.geometry ~name:"gate" ~graph:r.Pipeline.graph
        ~flipping:r.Pipeline.flipping ~placement:r.Pipeline.placement
        ~routing:r.Pipeline.routing
    in
    ignore (emit ());
    let g, words = minor_words_of emit in
    let n = List.length g.Tqec_geom.Geometry.defects in
    (n, float_of_int words /. float_of_int (max 1 n))
  in
  let n_small, w_small = per_defect quarter in
  let n_big, w_big = per_defect (Generator.scale_tier ~factor:1 ()) in
  let sized = n_big >= 3 * n_small in
  let linear = w_big <= 2. *. w_small in
  Printf.printf
    "[route-stress] emit-alloc         defects=%d/%d words-per-defect=%.1f/%.1f \
     sized=%b linear=%b\n%!"
    n_small n_big w_small w_big sized linear;
  if not sized then
    Printf.eprintf
      "[route-stress]   error: gate circuits emit %d vs %d defects (want \
       >= 3x apart)\n%!"
      n_small n_big;
  if not linear then
    Printf.eprintf
      "[route-stress]   error: emission words per defect grow with the \
       circuit (%.1f vs %.1f, want within 2x)\n%!"
      w_small w_big;
  sized && linear

(* Gate 3: Steiner bookkeeping.  One net of 64 pins and one of 256 pins,
   each on an empty grid with its pins on a square lattice, so every
   connection's path has about the same length: routing minor words per
   pin at 256 stay within 1.5x of those at 64.  Per-connection work that
   allocates in the number of pins (a rebuilt, re-sorted pin list)
   scales the per-pin cost with the net, about 4x here. *)
let steiner_allocation_gate () =
  let spacing = 4 in
  let per_pin side =
    let extent = (side - 1) * spacing in
    let nets =
      [
        {
          Pathfinder.net_id = 0;
          pins =
            List.init (side * side) (fun i ->
                Vec3.make (i / side * spacing) (i mod side * spacing) 0);
        };
      ]
    in
    let fresh () =
      Grid.create (Box3.make Vec3.zero (Vec3.make extent extent 1))
    in
    let route g () = Pathfinder.route_all g Pathfinder.default_config nets in
    (* warm the per-domain A* scratch at this grid size *)
    ignore (route (fresh ()) ());
    let g = fresh () in
    let r, words = minor_words_of (route g) in
    let legal = r.Pathfinder.success && Pathfinder.validate g r nets = [] in
    (legal, float_of_int words /. float_of_int (side * side))
  in
  let legal_small, w_small = per_pin 8 in
  let legal_big, w_big = per_pin 16 in
  let linear = w_big <= 1.5 *. w_small in
  Printf.printf
    "[route-stress] steiner-alloc      pins=64/256 words-per-pin=%.1f/%.1f \
     routed=%b/%b linear=%b\n%!"
    w_small w_big legal_small legal_big linear;
  if not (legal_small && legal_big) then
    Printf.eprintf "[route-stress]   error: a lattice net did not route legally\n%!";
  if not linear then
    Printf.eprintf
      "[route-stress]   error: Steiner routing words per pin grow with the \
       net (%.1f vs %.1f, want within 1.5x)\n%!"
      w_small w_big;
  legal_small && legal_big && linear

let () =
  let ok = List.fold_left (fun acc name -> run_one name && acc) true benchmarks in
  let ok = sparse_substrate () && ok in
  let ok = steady_scratch () && ok in
  let ok = astar_allocation_gate () && ok in
  let ok = emit_allocation_gate () && ok in
  let ok = steiner_allocation_gate () && ok in
  if ok then print_endline "[route-stress] all geometries legal"
  else begin
    prerr_endline "[route-stress] FAILED";
    exit 1
  end
