(* The tqecc benchmark: time to a verified geometry, its space-time
   volume, and where the time goes, on the path a `tqecc compress` user
   takes:

     circuit -> Clifford_t.decompose + Decompose.run -> Pipeline.run_icm
             -> Emit_core.geometry -> Tqec_verify.Check.run

   One process runs one workload.  A pass compresses every circuit of
   the workload in order.  End-to-end metrics come from untraced passes;
   with [--trace 1], traced passes interleave with them and record
   per-layer spans and counts from outside the library (spans around the
   public entry points, and the public [~on_stage] callback for the
   stages inside [run_icm]).  Every circuit must route and verify clean,
   and every pass must reproduce the first pass's fingerprints, or the
   run reports [correct = false].

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   stdout: one JSON object per line — a [meta] record, one [row] per
   circuit per pass, an [aggregate] record — and last the result
   object the benchmark contract asks for (see NOTES.md). *)

module Circuit = Tqec_circuit.Circuit
module Generator = Tqec_circuit.Generator
module Suite = Tqec_circuit.Suite
module Icm = Tqec_icm.Icm
module Pipeline = Tqec_compress.Pipeline
module Emit_core = Tqec_compress.Emit_core
module Baselines = Tqec_compress.Baselines
module Placer = Tqec_place.Placer
module Sa = Tqec_place.Sa
module Pathfinder = Tqec_route.Pathfinder
module Counters = Tqec_route.Counters
module Grid = Tqec_route.Grid
module Pool = Tqec_util.Pool
module Check = Tqec_verify.Check
module Violation = Tqec_verify.Violation

let now = Unix.gettimeofday

(* ---- workloads ---------------------------------------------------- *)

type workload = {
  name : string;
  instance : seed:int -> Circuit.t list;
      (** one instance of the workload's circuit list *)
  instances : int;  (** instances per pass, each from its own seed *)
  effort : Placer.effort;
  restarts : int;
  jobs : int;
}

(* Every field is named, so nothing the process environment holds
   (TQEC_JOBS, TQEC_VERIFY, TQEC_DEBUG, TQEC_PARTITION) can change what
   a workload measures.  Knobs a `tqecc compress` user leaves alone keep
   the library's defaults. *)
let config w ~seed =
  {
    Pipeline.variant = Pipeline.Full;
    effort = w.effort;
    seed;
    enable_ishape = true;
    z_cap = None;
    strategy = Placer.Annealing;
    restarts = w.restarts;
    jobs = Some w.jobs;
    early_stop_margin = Placer.default_config.Placer.early_stop_margin;
    partition = None;
    auto_partition = None;
    corridor_cells = None;
    corridor_cache = Pathfinder.default_config.Pathfinder.corridor_cache;
    sa_moves_cap = None;
    debug = false;
    verify = Some false;
  }

(* Instance [i] of run seed [s] is generated from seed [instances * s + i],
   so two run seeds never share a circuit, and seed 0's first instance
   is the suite's and the tiers' default circuits.  A generator seed
   moves by [stride] per unit of instance seed. *)
let stride = 7919

let inputs w ~seed =
  List.concat
    (List.init w.instances (fun i -> w.instance ~seed:((w.instances * seed) + i)))

let suite_circuit ~seed (name, factor) =
  match Suite.find name with
  | None -> invalid_arg ("unknown suite circuit " ^ name)
  | Some e ->
      let spec =
        { e.Suite.spec with
          Generator.seed = e.Suite.spec.Generator.seed + (stride * seed) }
      in
      Suite.scaled ~factor { e with Suite.spec }

let tier ~seed factor =
  Generator.scale_tier ~factor ~seed:(4099 + factor + (stride * seed)) ()

(* Several instances per pass because one random circuit's routing
   effort and volume swing by tens of percent from seed to seed; the
   pass totals of several are steady enough to gate on.  NOTES.md gives
   the measurements behind each choice. *)
let workloads =
  [
    (* The paper suite's six used rows at the CLI's default effort,
       single-threaded: routing and emission + check share the pass.
       4gt4-v0_73 runs at half size: at full size its routing alone
       swings 4-8.5 s with the seed and drowns every other row. *)
    {
      name = "suite-quick";
      instance =
        (fun ~seed ->
          List.map (suite_circuit ~seed)
            [ ("4gt10-v1_81", 1); ("4gt4-v0_73", 2); ("rd84_142", 4);
              ("hwb5_53", 8); ("sym6_145", 8); ("ham15_107", 16) ]);
      instances = 3;
      effort = Placer.Quick;
      restarts = 1;
      jobs = 1;
    };
    (* Many mid-sized scale-tier grids; routing and emission dominate.
       One domain, because the batch-parallel routing path on two
       domains is slower here and its wall time follows the host's
       scheduling (the same seed measured 28-44 s). *)
    {
      name = "tier-x1-j1";
      instance = (fun ~seed -> [ tier ~seed 1 ]);
      instances = 20;
      effort = Placer.Quick;
      restarts = 1;
      jobs = 1;
    };
    (* Multi-start annealing lanes across domains: placement is nearly
       the whole pass, routing and emission nearly idle. *)
    {
      name = "place-normal-j2";
      instance =
        (fun ~seed ->
          [ suite_circuit ~seed ("4gt10-v1_81", 1); tier ~seed 1;
            suite_circuit ~seed ("hwb5_53", 8) ]);
      instances = 4;
      effort = Placer.Normal;
      restarts = 2;
      jobs = 2;
    };
  ]

(* ---- one circuit -------------------------------------------------- *)

(* Allocated words (minor + direct major allocations). *)
let words_of (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
let words () = words_of (Gc.quick_stat ())

type spans = {
  decompose : float;
  bridging : float;
  placement : float;
  routing : float;
  finish : float;
  emit : float;
  verify : float;
  place_words : float;
  route_words : float;
  emit_words : float;
}

type counts = {
  cnots : int;
  modules : int;
  chains : int;
  dual_bridges : int;
  nodes : int;
  sa_moves : int;
  sa_accepted : int;
  iterations : int;
  searches : int;
  fallbacks : int;
  scratch_grows : int;
  cells : int;
  touched_cells : int;
  overused_after : int;
  defects : int;
  violations : int;
}

(* The preprocess stage of `tqecc compress`. *)
let to_icm circuit =
  Tqec_icm.Decompose.run
    (if Circuit.is_clifford_t circuit then circuit
     else Tqec_circuit.Clifford_t.decompose circuit)

type outcome = {
  circuit : string;
  wall : float;
  canonical : int;  (** reference volume, computed during set-up *)
  result : (int * string * counts, string) result;
      (** (volume, fingerprint, counts), or why the circuit failed *)
  spans : spans option;  (** traced passes only *)
}

let compress ~traced config ((circuit : Circuit.t), canonical) =
  (* Every circuit starts from a compacted heap, as a fresh `tqecc
     compress` process would, so one circuit's garbage does not bill
     the next one's collections. *)
  Gc.compact ();
  Counters.reset ();
  let stages = ref [] in
  let on_stage =
    if traced then Some (fun stage dt -> stages := (stage, dt, words ()) :: !stages)
    else None
  in
  let t0 = now () in
  let icm = to_icm circuit in
  let t_icm = if traced then now () else 0. in
  match Pipeline.run_icm ~config ?on_stage icm with
  | exception Pipeline.Stage_failure { stage; message } ->
      let wall = now () -. t0 in
      { circuit = circuit.Circuit.name; wall;
        canonical;
        result = Error (Printf.sprintf "%s stage failed: %s" stage message);
        spans = None }
  | r ->
      let t_run = if traced then now () else 0. in
      let w_run = if traced then words () else 0. in
      let geometry =
        Emit_core.geometry ~name:r.Pipeline.icm.Icm.name ~graph:r.Pipeline.graph
          ~flipping:r.Pipeline.flipping ~placement:r.Pipeline.placement
          ~routing:r.Pipeline.routing
      in
      let t_emit = if traced then now () else 0. in
      let w_emit = if traced then words () else 0. in
      let report =
        Check.run
          {
            Check.a_icm = r.Pipeline.icm;
            a_graph = r.Pipeline.graph;
            a_merges = r.Pipeline.merges;
            a_flipping = r.Pipeline.flipping;
            a_dual = r.Pipeline.dual;
            a_fvalue = r.Pipeline.fvalue;
            a_placement = r.Pipeline.placement;
            a_routing = r.Pipeline.routing;
            a_volume = r.Pipeline.volume;
            a_geometry = Some geometry;
          }
      in
      let t1 = now () in
      let spans =
        if not traced then None
        else
          let stage name =
            match List.find_opt (fun (s, _, _) -> s = name) !stages with
            | Some (_, dt, w) -> (dt, w)
            | None -> (0., 0.)
          in
          let bridging, w_bridging = stage "bridging" in
          let placement, w_placement = stage "placement" in
          let routing, w_routing = stage "routing" in
          let finish, _ = stage "finish" in
          Some
            {
              decompose = t_icm -. t0;
              bridging;
              placement;
              routing;
              finish;
              emit = t_emit -. t_run;
              verify = t1 -. t_emit;
              place_words = w_placement -. w_bridging;
              route_words = w_routing -. w_placement;
              emit_words = w_emit -. w_run;
            }
      in
      let rc = Counters.stats () in
      let mem = r.Pipeline.grid_mem in
      let st = r.Pipeline.stages in
      let sa = r.Pipeline.placement.Placer.sa_stats in
      let routing = r.Pipeline.routing in
      let counts =
        {
          cnots = (Icm.stats icm).Icm.s_cnots;
          modules = st.Pipeline.st_modules;
          chains = st.Pipeline.st_chains;
          dual_bridges = st.Pipeline.st_dual_bridges;
          nodes = st.Pipeline.st_nodes;
          sa_moves = sa.Sa.attempted;
          sa_accepted = sa.Sa.accepted;
          iterations = routing.Pathfinder.iterations_used;
          searches =
            rc.Counters.flat_searches + rc.Counters.coarse_searches
            + rc.Counters.fine_searches;
          fallbacks = rc.Counters.flat_fallbacks;
          scratch_grows = rc.Counters.scratch_grows;
          cells = mem.Grid.mem_cells;
          touched_cells = mem.Grid.mem_touched_cells;
          overused_after = routing.Pathfinder.overused_after;
          defects = List.length geometry.Tqec_geom.Geometry.defects;
          violations = List.length report.Violation.violations;
        }
      in
      let result =
        if not routing.Pathfinder.success then
          Error
            (Printf.sprintf "unrouted: %d overused cells, %d unrouted nets"
               routing.Pathfinder.overused_after
               (List.length routing.Pathfinder.unrouted))
        else if not (Violation.ok report) then
          Error
            (Printf.sprintf "%d verify violation(s)"
               (List.length report.Violation.violations))
        else Ok (r.Pipeline.volume, Pipeline.fingerprint r, counts)
      in
      { circuit = circuit.Circuit.name; wall = t1 -. t0;
        canonical; result; spans }

(* ---- JSON output -------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured; non-finite values cannot occur by
   construction (all denominators are clamped) but must never reach the
   output as bare [nan]/[inf]. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* ---- passes and aggregates ---------------------------------------- *)

type pass = { traced : bool; outcomes : outcome list; pool : Pool.stats * Pool.stats;
              gc : Gc.stat * Gc.stat }

let run_pass ~traced config circuits =
  let pool0 = Pool.stats () and gc0 = Gc.quick_stat () in
  let outcomes = List.map (compress ~traced config) circuits in
  { traced; outcomes; pool = (pool0, Pool.stats ()); gc = (gc0, Gc.quick_stat ()) }

let pass_wall p = List.fold_left (fun a o -> a +. o.wall) 0. p.outcomes

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = a /. Float.max b 1e-12

let row ~pass ~index p o =
  let status, result_fields =
    match o.result with
    | Ok (volume, fp, c) ->
        ( "ok",
          [ ("volume", string_of_int volume);
            ("volume_ratio", json_float (ratio (float_of_int volume) (float_of_int o.canonical)));
            ("fingerprint", json_string fp);
            ("sa_moves", string_of_int c.sa_moves);
            ("route_iterations", string_of_int c.iterations);
            ("route_searches", string_of_int c.searches);
            ("defects", string_of_int c.defects) ] )
    | Error why -> (why, [])
  in
  let span_fields =
    match o.spans with
    | None -> []
    | Some s ->
        [ ( "spans_s",
            json_object
              [ ("icm", json_float s.decompose); ("bridging", json_float s.bridging);
                ("placement", json_float s.placement); ("routing", json_float s.routing);
                ("finish", json_float s.finish); ("emit", json_float s.emit);
                ("verify", json_float s.verify) ] ) ]
  in
  json_object
    ([ ("kind", json_string "row"); ("pass", json_string pass); ("index", string_of_int index);
       ("traced", string_of_bool p.traced); ("circuit", json_string o.circuit);
       ("wall_s", json_float o.wall); ("canonical", string_of_int o.canonical);
       ("status", json_string status) ]
    @ result_fields @ span_fields)

(* Per-layer metrics of one traced pass: spans and counts summed over
   the pass's circuits, ratios taken over the sums. *)
let layer_metrics p =
  let sum_span f =
    List.fold_left (fun a o -> match o.spans with Some s -> a +. f s | None -> a) 0. p.outcomes
  in
  let sum_count f =
    List.fold_left
      (fun a o -> match o.result with Ok (_, _, c) -> a + f c | Error _ -> a)
      0 p.outcomes
  in
  let fi = float_of_int in
  let place_s = sum_span (fun s -> s.placement) in
  let route_s = sum_span (fun s -> s.routing) in
  let emit_s = sum_span (fun s -> s.emit) in
  let sa_moves = sum_count (fun c -> c.sa_moves) in
  let searches = sum_count (fun c -> c.searches) in
  let defects = sum_count (fun c -> c.defects) in
  let (pool0 : Pool.stats), (pool1 : Pool.stats) = p.pool in
  let (gc0 : Gc.stat), (gc1 : Gc.stat) = p.gc in
  let mw w = w /. 1e6 in
  [
    ("icm.decompose_s", sum_span (fun s -> s.decompose));
    ("icm.cnots", fi (sum_count (fun c -> c.cnots)));
    ("pdgraph.bridging_s", sum_span (fun s -> s.bridging));
    ("pdgraph.modules", fi (sum_count (fun c -> c.modules)));
    ("pdgraph.chains", fi (sum_count (fun c -> c.chains)));
    ("pdgraph.dual_bridges", fi (sum_count (fun c -> c.dual_bridges)));
    ("place.s", place_s);
    ("place.sa_moves", fi sa_moves);
    ("place.sa_accept_ratio", ratio (fi (sum_count (fun c -> c.sa_accepted))) (fi sa_moves));
    ("place.moves_per_s", ratio (fi sa_moves) place_s);
    ("place.nodes", fi (sum_count (fun c -> c.nodes)));
    ("place.alloc_mw", mw (sum_span (fun s -> s.place_words)));
    ("route.s", route_s);
    ("route.iterations", fi (sum_count (fun c -> c.iterations)));
    ("route.searches", fi searches);
    ("route.fallbacks", fi (sum_count (fun c -> c.fallbacks)));
    ("route.scratch_grows", fi (sum_count (fun c -> c.scratch_grows)));
    ("route.us_per_search", ratio (route_s *. 1e6) (fi searches));
    ("route.cells", fi (sum_count (fun c -> c.cells)));
    ("route.touched_cells", fi (sum_count (fun c -> c.touched_cells)));
    ("route.overused_after", fi (sum_count (fun c -> c.overused_after)));
    ("route.alloc_mw", mw (sum_span (fun s -> s.route_words)));
    ("emit.s", emit_s);
    ("emit.defects", fi defects);
    ("emit.us_per_defect", ratio (emit_s *. 1e6) (fi defects));
    ("emit.alloc_mw", mw (sum_span (fun s -> s.emit_words)));
    ("verify.s", sum_span (fun s -> s.verify));
    ("verify.violations", fi (sum_count (fun c -> c.violations)));
    ("pool.executed", fi (pool1.Pool.executed - pool0.Pool.executed));
    ("pool.stolen", fi (pool1.Pool.stolen - pool0.Pool.stolen));
    ("pool.parks", fi (pool1.Pool.parks - pool0.Pool.parks));
    ("gc.major_collections", fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.alloc_mw", mw (words_of gc1 -. words_of gc0));
  ]

let units =
  [ ("compress_s", "s"); ("volume_ratio", "ratio"); ("verified_frac", "fraction");
    ("peak_rss_mb", "MB"); ("setup_s", "s"); ("icm.decompose_s", "s");
    ("pdgraph.bridging_s", "s"); ("place.s", "s"); ("place.sa_accept_ratio", "ratio");
    ("place.moves_per_s", "1/s"); ("place.alloc_mw", "Mw"); ("route.s", "s");
    ("route.us_per_search", "us"); ("route.alloc_mw", "Mw"); ("emit.s", "s");
    ("emit.us_per_defect", "us"); ("emit.alloc_mw", "Mw"); ("verify.s", "s");
    ("gc.alloc_mw", "Mw"); ("trace.overhead_s", "s") ]

let unit_of name = Option.value ~default:"count" (List.assoc_opt name units)

let metric_fields metrics =
  List.map
    (fun (name, v) ->
      (name, json_object [ ("value", json_float v); ("unit", json_string (unit_of name)) ]))
    metrics

(* ---- run metadata ------------------------------------------------- *)

(* Lines of lib/ sources by extension, or (-1, -1) when the checkout has
   no lib/ directory.  Recorded so a simplification shows its deletions;
   not a gated metric. *)
let lib_lines () =
  let count file =
    In_channel.with_open_bin file (fun ic ->
        let s = In_channel.input_all ic in
        let n = ref 0 in
        String.iter (fun c -> if c = '\n' then incr n) s;
        !n)
  in
  let rec walk (ml, mli) dir =
    Array.fold_left
      (fun (ml, mli) entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk (ml, mli) path
        else if Filename.check_suffix entry ".ml" then (ml + count path, mli)
        else if Filename.check_suffix entry ".mli" then (ml, mli + count path)
        else (ml, mli))
      (ml, mli) (Sys.readdir dir)
  in
  if Sys.file_exists "lib" && Sys.is_directory "lib" then walk (0, 0) "lib" else (-1, -1)

(* ---- main --------------------------------------------------------- *)

(* Set-up runs at least [setup_reps] times and for at least
   [setup_min_s] seconds; the median is reported. *)
let setup_reps = 9
let setup_min_s = 0.25

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let config = config w ~seed in
  (* Set-up: generate the circuits, derive the canonical volumes the
     volume check compares against, and warm the worker pool. *)
  let setup () =
    let t0 = now () in
    let inputs =
      List.map (fun c -> (c, Baselines.canonical_volume (to_icm c))) (inputs w ~seed)
    in
    ignore (Pool.run ~jobs:w.jobs (Array.make w.jobs (fun () -> ())));
    (now () -. t0, inputs)
  in
  let setup_start = now () in
  let rec setups acc =
    if List.length acc >= setup_reps && now () -. setup_start >= setup_min_s then acc
    else setups (setup () :: acc)
  in
  let setups = setups [] in
  let setup_s = median (List.map fst setups) in
  let inputs = snd (List.hd setups) in
  let ml, mli = lib_lines () in
  print_endline
    (json_object
       [ ("kind", json_string "meta"); ("workload", json_string w.name);
         ("seed", string_of_int seed); ("seconds", json_float seconds);
         ("trace", string_of_bool trace); ("jobs", string_of_int w.jobs);
         ("setup_reps", string_of_int (List.length setups));
         ("circuits",
          "[" ^ String.concat ", " (List.map (fun (c, _) -> json_string c.Circuit.name) inputs) ^ "]");
         ("lib_ml_lines", string_of_int ml); ("lib_mli_lines", string_of_int mli) ]);
  (* Passes: untraced only, or untraced and traced alternating.  The
     first pass (both first passes when tracing) always runs; another
     starts only while it is expected to end within [seconds], judged by
     the longest pass so far. *)
  let start = now () in
  let rec loop acc longest =
    let n = List.length acc in
    let must = if trace then 2 else 1 in
    if n >= must && now () -. start +. longest > seconds then List.rev acc
    else begin
      let traced = trace && n mod 2 = 1 in
      let p = run_pass ~traced config inputs in
      List.iteri (fun i o -> print_endline (row ~pass:(string_of_int n) ~index:i p o)) p.outcomes;
      loop (p :: acc) (Float.max longest (pass_wall p))
    end
  in
  let passes = loop [] 0. in
  (* A lone pass has nothing to be compared with: compress its first
     circuit once more, outside the measurement. *)
  let repeat =
    match (passes, inputs) with
    | [ _ ], first :: _ ->
        let p = run_pass ~traced:false config [ first ] in
        List.iter (fun o -> print_endline (row ~pass:"repeat" ~index:0 p o)) p.outcomes;
        p.outcomes
    | _ -> []
  in
  let peak_rss_mb =
    match Tqec_util.Stats.peak_rss_kb () with Some kb -> float_of_int kb /. 1024. | None -> 0.
  in
  (* Correctness: every circuit routed and verified clean, and every
     compression of a circuit gave the first pass's volume and
     fingerprint. *)
  let all = List.concat_map (fun p -> p.outcomes) passes @ repeat in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun o -> Result.is_error o.result) all) in
  let key o = Result.map (fun (v, fp, _) -> (v, fp)) o.result in
  let reference = List.map key (List.hd passes).outcomes in
  let consistent =
    List.for_all (fun p -> List.map key p.outcomes = reference) passes
    && List.for_all (fun o -> Some (key o) = List.nth_opt reference 0) repeat
  in
  let correct = failed = 0 && consistent in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let compress_s = median (List.map pass_wall untraced) in
  let volume_ratio =
    match
      List.filter_map
        (fun o ->
          match o.result with
          | Ok (v, _, _) -> Some (ratio (float_of_int v) (float_of_int o.canonical))
          | Error _ -> None)
        (List.hd passes).outcomes
    with
    | [] -> 0.
    | rs -> Tqec_util.Stats.geomean rs
  in
  let failed_frac = float_of_int failed /. float_of_int attempted in
  let end_to_end =
    [ ("compress_s", compress_s); ("volume_ratio", volume_ratio);
      ("verified_frac", 1. -. failed_frac); ("peak_rss_mb", peak_rss_mb);
      ("setup_s", setup_s) ]
  in
  let per_layer =
    match traced with
    | [] -> []
    | first :: _ ->
        let per_pass = List.map layer_metrics traced in
        List.map
          (fun (name, _) -> (name, median (List.map (List.assoc name) per_pass)))
          (layer_metrics first)
        @ [ ("trace.overhead_s", median (List.map pass_wall traced) -. compress_s) ]
  in
  print_endline
    (json_object
       ([ ("kind", json_string "aggregate"); ("passes", string_of_int (List.length passes));
          ("traced_passes", string_of_int (List.length traced));
          ("consistent", string_of_bool consistent);
          ("failed_frac", json_float failed_frac) ]
       @ metric_fields (end_to_end @ per_layer)));
  print_endline
    (json_object
       [ ("correct", string_of_bool correct); ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_object (metric_fields (if trace then per_layer else end_to_end))) ])
