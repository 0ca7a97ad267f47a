module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3

type net = { net_id : int; pins : Vec3.t list }

type config = {
  max_iterations : int;
  initial_penalty : int;
  penalty_growth : int;
  history_increment : int;
  region_margin : int;
  corridor_cells : int;
  corridor_cache : unit;
  debug : bool;
}

let default_config =
  {
    max_iterations = 40;
    initial_penalty = 6;
    penalty_growth = 4;
    history_increment = 2;
    region_margin = 3;
    (* Every paper-suite instance routes in well under this volume, so
       the hierarchical path never perturbs their bit-identical
       dense-era routes; scale-tier substrates blow past it. *)
    corridor_cells = 1_000_000;
    corridor_cache = ();
    (* Per-call, never ambient: a long-running server routes many
       requests with different settings, so the debug switch lives in
       the config (the CLI layer defaults it from TQEC_DEBUG). *)
    debug = false;
  }

type routed = { r_net : int; r_cells : Vec3.t list }

type result = {
  routes : routed list;
  success : bool;
  iterations_used : int;
  overused_after : int;
  unrouted : int list;
}

let dedup_cells cells =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c then false
      else begin
        Hashtbl.add seen c ();
        true
      end)
    cells

(* Every domain keeps its own A* workspace: independent [route_all]
   calls may run on different domains at once (suite instances fanned
   out over the pool), and the scratch holds the open queue and score
   arrays. *)
let scratch_key = Domain.DLS.new_key Astar.create_scratch

(* ------------------------------------------------------------------ *)
(* Tile-summary-guided region growth.                                  *)
(*                                                                     *)
(* When a corridor search fails, the window must widen.  The historic  *)
(* schedule inflated uniformly (margin, then 4*margin, then the whole  *)
(* grid); on large substrates this wastes most of the added volume on  *)
(* directions that are full or walled off.  Instead, spend the same    *)
(* total growth budget directionally: sum the free capacity            *)
(* ([Grid.tile_free]) of the one-tile slab beyond each of the six      *)
(* faces and divide the budget proportionally, so the window grows     *)
(* toward under-used volume first.  Deterministic integer arithmetic   *)
(* over tile summaries.  Returns [None] when every slab is exhausted   *)
(* (callers fall back to the uniform schedule). *)
let guided_widen grid ~margin region =
  let tdx, tdy, tdz = Grid.tile_dims grid in
  let lo = (Grid.box grid).Box3.lo in
  let edge = Grid.tile_edge in
  let rlo = region.Box3.lo and rhi = region.Box3.hi in
  let tlx = (rlo.Vec3.x - lo.Vec3.x) / edge
  and tly = (rlo.Vec3.y - lo.Vec3.y) / edge
  and tlz = (rlo.Vec3.z - lo.Vec3.z) / edge in
  let thx = min (tdx - 1) ((rhi.Vec3.x - lo.Vec3.x) / edge)
  and thy = min (tdy - 1) ((rhi.Vec3.y - lo.Vec3.y) / edge)
  and thz = min (tdz - 1) ((rhi.Vec3.z - lo.Vec3.z) / edge) in
  let sum_slab x0 x1 y0 y1 z0 z1 =
    if x0 < 0 || y0 < 0 || z0 < 0 || x1 >= tdx || y1 >= tdy || z1 >= tdz then 0
    else begin
      let s = ref 0 in
      for x = x0 to x1 do
        for y = y0 to y1 do
          for z = z0 to z1 do
            s := !s + Grid.tile_free grid ((((x * tdy) + y) * tdz) + z)
          done
        done
      done;
      !s
    end
  in
  (* face order: x-, x+, y-, y+, z-, z+ *)
  let free =
    [|
      sum_slab (tlx - 1) (tlx - 1) tly thy tlz thz;
      sum_slab (thx + 1) (thx + 1) tly thy tlz thz;
      sum_slab tlx thx (tly - 1) (tly - 1) tlz thz;
      sum_slab tlx thx (thy + 1) (thy + 1) tlz thz;
      sum_slab tlx thx tly thy (tlz - 1) (tlz - 1);
      sum_slab tlx thx tly thy (thz + 1) (thz + 1);
    |]
  in
  let total = Array.fold_left ( + ) 0 free in
  if total = 0 then None
  else begin
    (* same total budget as the uniform step (3*margin more per face
       past the margin-inflated window), spent proportionally; the
       integer remainder goes to the freest faces, ties broken by face
       index — all deterministic *)
    let budget = 18 * margin in
    let extra = Array.map (fun f -> budget * f / total) free in
    let rem = budget - Array.fold_left ( + ) 0 extra in
    let order = [| 0; 1; 2; 3; 4; 5 |] in
    Array.sort
      (fun a b ->
        match Int.compare free.(b) free.(a) with
        | 0 -> Int.compare a b
        | c -> c)
      order;
    for i = 0 to rem - 1 do
      let f = order.(i) in
      extra.(f) <- extra.(f) + 1
    done;
    Some
      (Box3.make
         (Vec3.make (rlo.Vec3.x - extra.(0)) (rlo.Vec3.y - extra.(2))
            (rlo.Vec3.z - extra.(4)))
         (Vec3.make (rhi.Vec3.x + extra.(1)) (rhi.Vec3.y + extra.(3))
            (rhi.Vec3.z + extra.(5))))
  end

(* Route one net as a Steiner tree; returns its cell set (or None when a
   pin is unreachable even with the widest region).  Only reads [grid];
   a batch search prices the net's own current route out via [exclude]
   (a -1 usage bias inside A*, exactly equivalent to ripping the net up
   first). *)
let route_net ?(avoid_used = false) ?(exclude = []) ?(corridor_cells = max_int)
    grid ~penalty ~margin (n : net) =
  match dedup_cells n.pins with
  | [] -> Some []
  | first :: rest ->
      let scratch = Domain.DLS.get scratch_key in
      let grid_box = Grid.box grid in
      let clip b =
        match Box3.inter b grid_box with Some r -> r | None -> grid_box
      in
      let tree = ref [ first ] in
      let tree_set = Hashtbl.create 64 in
      Hashtbl.replace tree_set first ();
      (* Prim order.  Each non-root pin keeps its exact Manhattan
         distance to the tree ([dist]) and the newest tree cell at that
         distance ([near]), updated as cells join; the first [live]
         slots hold the pins still to connect. *)
      let pins = Array.of_list rest in
      let dist = Array.map (Vec3.manhattan first) pins in
      let near = Array.make (Array.length pins) first in
      let live = ref (Array.length pins) in
      let add_cells cells =
        List.iter
          (fun c ->
            if not (Hashtbl.mem tree_set c) then begin
              Hashtbl.replace tree_set c ();
              tree := c :: !tree;
              (* [<=]: a tie moves the anchor to the newer cell *)
              for i = 0 to !live - 1 do
                let d = Vec3.manhattan c pins.(i) in
                if d <= dist.(i) then begin
                  dist.(i) <- d;
                  near.(i) <- c
                end
              done
            end)
          cells
      in
      let connect pin nearest =
        if Hashtbl.mem tree_set pin then true
        else begin
          (* restrict the search to the corridor between the pin and the
             nearest point of the tree, widening on failure *)
          let corridor = Box3.bounding [ pin; nearest ] in
          (* Small windows take the historical flat search (bit-identical
             routes).  Past the volume threshold, a coarse corridor over
             the tile graph bounds the fine search; if the corridor is
             infeasible at cell level, fall back to the exhaustive
             full-window search so completeness is unchanged. *)
          let try_region region =
            if Box3.volume region <= corridor_cells then
              Astar.search ~scratch ~avoid_used ~exclude grid ~region ~penalty
                ~sources:!tree ~target:pin
            else
              match
                Astar.search_corridor ~scratch ~avoid_used ~exclude grid
                  ~region ~penalty ~sources:!tree ~target:pin
              with
              | Some path -> Some path
              | None ->
                  Atomic.incr Counters.flat_fallbacks;
                  Astar.search ~scratch ~avoid_used ~exclude grid ~region
                    ~penalty ~sources:!tree ~target:pin
          in
          (* Escalation ladder, each region clipped to the grid.  A step
             whose clipped region does not strictly grow past the previous
             failed one would repeat the identical (and most expensive)
             search, so it is skipped: when the margin-inflated corridor
             already covers the grid, the failed search is final. *)
          let r1 = clip (Box3.inflate margin corridor) in
          (* Middle widening step: windows small enough for the flat
             search keep the historic uniform schedule (bit-identical
             routes on paper-suite instances); hierarchical windows
             grow toward free capacity instead, falling back to the
             uniform step when every neighboring tile slab is full.
             The full grid box remains the final fallback either
             way. *)
          let r2 =
            if Box3.volume r1 > corridor_cells then
              match guided_widen grid ~margin r1 with
              | Some r -> clip r
              | None -> clip (Box3.inflate (4 * margin) corridor)
            else clip (Box3.inflate (4 * margin) corridor)
          in
          let regions = [ r1; r2; grid_box ] in
          let rec attempt prev = function
            | [] -> None
            | r :: rest ->
                if (match prev with Some p -> Box3.equal p r | None -> false)
                then attempt prev rest
                else (
                  match try_region r with
                  | Some path -> Some path
                  | None -> attempt (Some r) rest)
          in
          match attempt None regions with
          | Some path ->
              add_cells path;
              true
          | None -> false
        end
      in
      let ok = ref true in
      while !ok && !live > 0 do
        (* connect the nearest live pin, ties broken by coordinates (pins
           are distinct, so the order is total and slot order never
           matters) *)
        let best = ref 0 in
        for i = 1 to !live - 1 do
          let c = Int.compare dist.(i) dist.(!best) in
          if c < 0 || (c = 0 && Vec3.compare pins.(i) pins.(!best) < 0) then
            best := i
        done;
        let b = !best and last = !live - 1 in
        let pin = pins.(b) and nearest = near.(b) in
        pins.(b) <- pins.(last);
        dist.(b) <- dist.(last);
        near.(b) <- near.(last);
        live := last;
        ok := connect pin nearest
      done;
      if !ok then Some (List.rev !tree) else None

(* Negotiated congestion, one domain.  The first iteration routes every
   net incrementally, exactly like classic serial PathFinder.  Later
   iterations are Jacobi-style batches: every net under negotiation is
   searched against the same pre-commit state of the live grid (each
   with its own current route priced out through [exclude]), and only
   then are the new routes ripped up and committed serially in
   deterministic net order.  Conflicts the batch searches could not see
   surface as overuse at commit and are renegotiated next iteration. *)
let route_all grid config nets =
  let routes : (int, Vec3.t list) Hashtbl.t = Hashtbl.create 64 in
  let rip_up net_id =
    match Hashtbl.find_opt routes net_id with
    | None -> ()
    | Some cells ->
        List.iter (fun c -> Grid.add_usage grid c (-1)) cells;
        Hashtbl.remove routes net_id
  in
  let claim net_id cells =
    List.iter (fun c -> Grid.add_usage grid c 1) cells;
    Hashtbl.replace routes net_id cells
  in
  let unrouted = ref [] in
  let iterations_used = ref 0 in
  let finished = ref false in
  let penalty = ref config.initial_penalty in
  (* biggest nets first: they have the least routing freedom *)
  let nets =
    List.stable_sort
      (fun a b -> Int.compare (List.length b.pins) (List.length a.pins))
      nets
  in
  let route_set = ref nets in
  (* Batch routing can sustain a lock-step oscillation: two symmetric
     nets avoiding each other's stale position swap cells forever, each
     move depositing history on both alternatives equally.  Serial
     incremental rerouting is immune (the second net reacts to the
     first's new route), so small conflict batches and stagnating
     negotiations fall back to it. *)
  let serial_batch_cutoff = 4 in
  let stagnation_limit = 3 in
  let best_overused = ref max_int in
  let stagnant = ref 0 in
  while (not !finished) && !iterations_used < config.max_iterations do
    incr iterations_used;
    let batch = Array.of_list !route_set in
    let penalty_now = !penalty and margin = config.region_margin in
    let still_unrouted = ref [] in
    if
      !iterations_used = 1
      || Array.length batch <= serial_batch_cutoff
      || !stagnant >= stagnation_limit
    then
      (* The first iteration defines the initial solution: route it
         incrementally (each net sees every earlier commitment) exactly
         like classic serial PathFinder — a blind first-iteration batch
         measurably degrades final volume.  Small or stagnating conflict
         batches take the same path to break batch oscillations. *)
      Array.iter
        (fun n ->
          rip_up n.net_id;
          match
            route_net ~corridor_cells:config.corridor_cells grid
              ~penalty:penalty_now ~margin n
          with
          | Some cells -> claim n.net_id cells
          | None -> still_unrouted := n.net_id :: !still_unrouted)
        batch
    else begin
      let exclude_of n =
        match Hashtbl.find_opt routes n.net_id with
        | Some cells -> cells
        | None -> []
      in
      (* the grid is not written until the commit loop below, so every
         batch net searches the same pre-commit state *)
      let found =
        Array.map
          (fun n ->
            route_net ~corridor_cells:config.corridor_cells grid
              ~exclude:(exclude_of n) ~penalty:penalty_now ~margin n)
          batch
      in
      Array.iteri
        (fun i n ->
          rip_up n.net_id;
          match found.(i) with
          | Some cells -> claim n.net_id cells
          | None -> still_unrouted := n.net_id :: !still_unrouted)
        batch
    end;
    unrouted := !still_unrouted;
    let overused = Grid.overused grid in
    if List.length overused < !best_overused then begin
      best_overused := List.length overused;
      stagnant := 0
    end
    else incr stagnant;
    if config.debug then
      Printf.eprintf "[pathfinder] iter=%d rerouted=%d overused=%d\n%!"
        !iterations_used (Array.length batch) (List.length overused);
    if overused = [] && !unrouted = [] then finished := true
    else begin
      List.iter (fun c -> Grid.add_history grid c config.history_increment) overused;
      penalty := !penalty + config.penalty_growth;
      (* negotiate only where it matters: re-route just the nets that
         cross an overused cell (plus any still-unrouted net) *)
      let hot = Hashtbl.create 64 in
      List.iter (fun c -> Hashtbl.replace hot c ()) overused;
      route_set :=
        List.filter
          (fun n ->
            List.mem n.net_id !unrouted
            ||
            match Hashtbl.find_opt routes n.net_id with
            | Some cells -> List.exists (Hashtbl.mem hot) cells
            | None -> true)
          nets
    end
  done;
  (* Endgame cleanup: negotiation can oscillate between net pairs on a
     handful of cells.  Resolve each residual conflict deterministically:
     hard-block the contested cells and reroute the smallest involved
     net around them (restoring its old route if that fails). *)
  let cleanup_rounds = ref 0 in
  let rec cleanup () =
    incr cleanup_rounds;
    let overused = Grid.overused grid in
    if overused <> [] && !cleanup_rounds <= 8 then begin
      let hot = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace hot c ()) overused;
      let involved =
        List.filter
          (fun n ->
            match Hashtbl.find_opt routes n.net_id with
            | Some cells -> List.exists (Hashtbl.mem hot) cells
            | None -> false)
          nets
        |> List.sort (fun a b ->
               Int.compare (List.length a.pins) (List.length b.pins))
      in
      let progressed = ref false in
      let rec try_victims = function
        | [] -> ()
        | victim :: others -> (
            let old = Hashtbl.find routes victim.net_id in
            rip_up victim.net_id;
            match
              route_net ~avoid_used:true
                ~corridor_cells:config.corridor_cells grid ~penalty:!penalty
                ~margin:config.region_margin victim
            with
            | Some cells ->
                claim victim.net_id cells;
                progressed := true
            | None ->
                claim victim.net_id old;
                try_victims others)
      in
      try_victims involved;
      if !progressed then cleanup ()
    end
  in
  cleanup ();
  let final_overused = Grid.overused grid in
  if config.debug then
    List.iter
      (fun c ->
        let users =
          List.filter_map
            (fun n ->
              match Hashtbl.find_opt routes n.net_id with
              | Some cells when List.exists (Vec3.equal c) cells ->
                  Some (Printf.sprintf "%d(pins=%d)" n.net_id (List.length n.pins))
              | _ -> None)
            nets
        in
        Printf.eprintf "[pathfinder] stuck %s usage=%d obst-nbrs=%d users=%s\n%!"
          (Vec3.to_string c) (Grid.usage grid c)
          (List.length (List.filter (Grid.is_obstacle grid) (Vec3.axis_neighbors c)))
          (String.concat "," users))
      final_overused;
  let overused_after = List.length final_overused in
  {
    routes =
      List.filter_map
        (fun n ->
          Hashtbl.find_opt routes n.net_id
          |> Option.map (fun cells -> { r_net = n.net_id; r_cells = cells }))
        nets;
    success = overused_after = 0 && !unrouted = [];
    iterations_used = !iterations_used;
    overused_after;
    unrouted = List.rev !unrouted;
  }

let validate grid result nets =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let by_id = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace by_id r.r_net r.r_cells) result.routes;
  (* per-cell usage over all routed nets: the capacity oracle *)
  let usage = Hashtbl.create 256 in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          Hashtbl.replace usage c
            (1 + Option.value ~default:0 (Hashtbl.find_opt usage c)))
        r.r_cells)
    result.routes;
  List.iter
    (fun n ->
      match Hashtbl.find_opt by_id n.net_id with
      | None ->
          if not (List.mem n.net_id result.unrouted) then
            err "net %d missing from routes" n.net_id
      | Some cells ->
          let pins = dedup_cells n.pins in
          let pin_set = Hashtbl.create 8 in
          List.iter (fun p -> Hashtbl.replace pin_set p ()) pins;
          (* geometric legality against the grid: every cell inside the
             routing box, and no obstacle crossings except at the net's
             own pins (the only cells A* exempts) *)
          let cell_set = Hashtbl.create 64 in
          List.iter
            (fun c ->
              if Hashtbl.mem cell_set c then
                err "net %d lists cell %s twice" n.net_id (Vec3.to_string c)
              else Hashtbl.replace cell_set c ();
              if not (Grid.in_bounds grid c) then
                err "net %d leaves the routing grid at %s" n.net_id
                  (Vec3.to_string c)
              else if Grid.is_obstacle grid c && not (Hashtbl.mem pin_set c)
              then
                err "net %d passes through obstacle %s" n.net_id
                  (Vec3.to_string c))
            cells;
          List.iter
            (fun pin ->
              if not (Hashtbl.mem cell_set pin) then
                err "net %d does not reach pin %s" n.net_id (Vec3.to_string pin))
            pins;
          (* connectivity by BFS over the cell set *)
          (match cells with
          | [] -> ()
          | start :: _ ->
              let visited = Hashtbl.create 64 in
              let queue = Queue.create () in
              Queue.add start queue;
              Hashtbl.replace visited start ();
              while not (Queue.is_empty queue) do
                let p = Queue.pop queue in
                List.iter
                  (fun q ->
                    if Hashtbl.mem cell_set q && not (Hashtbl.mem visited q)
                    then begin
                      Hashtbl.replace visited q ();
                      Queue.add q queue
                    end)
                  (Vec3.axis_neighbors p)
              done;
              if Hashtbl.length visited <> Hashtbl.length cell_set then
                err "net %d cells disconnected" n.net_id))
    nets;
  (* capacity and overuse accounting: non-shared cells carry at most
     [Grid.capacity] strands, and the result must own up to exactly the
     overuse its routes imply *)
  let over =
    (* hash-order: the overuse list is sorted before reporting *)
    Hashtbl.fold
      (fun c u acc ->
        if u > Grid.capacity && Grid.in_bounds grid c
           && not (Grid.is_shared grid c)
        then (c, u) :: acc
        else acc)
      usage []
    |> List.sort compare
  in
  if result.success then
    List.iter
      (fun (c, u) ->
        err "cell %s carries %d nets (capacity %d)" (Vec3.to_string c) u
          Grid.capacity)
      over;
  if List.length over <> result.overused_after then
    err "overuse accounting: result reports %d overused cells, routes imply %d"
      result.overused_after (List.length over);
  List.rev !errors
