module Suite = Tqec_circuit.Suite
module Generator = Tqec_circuit.Generator
module Clifford_t = Tqec_circuit.Clifford_t
module Decompose = Tqec_icm.Decompose
module Icm = Tqec_icm.Icm
module Placer = Tqec_place.Placer

type config = {
  effort : Placer.effort;
  scale : int;
  auto_scale : bool;
  seed : int;
  benchmarks : string list;
  restarts : int;
  jobs : int option;
  early_stop_margin : float option;
  partition : int option;
  debug : bool;
}

(* env-read: call-time capture, daemon-safe by construction — [env] is
   only reached from [partition_from_env] / [config_from_env], which the
   CLI and bench entry points call once per invocation to build their
   defaults.  The serving daemon never consults the environment for
   request-scoped behavior: every request carries explicit knobs. *)
let env name = Sys.getenv_opt name

(* TQEC_PARTITION: node-count cap for divide-and-conquer placement
   ("400" = partition instances beyond 400 nodes); "off" / unset / a
   non-positive value keeps the single-die annealer. *)
let partition_from_env () =
  match env "TQEC_PARTITION" with
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> Some v
      | _ -> None)
  | None -> None

(* Keep each instance near the largest size that places and routes in a
   few minutes (about rd84's 2600 modules). *)
let auto_factor (entry : Suite.entry) =
  let modules = entry.Suite.paper.Suite.p_modules in
  max 1 ((modules + 2599) / 2600)

let config_from_env () =
  let effort =
    match env "TQEC_EFFORT" with
    | Some s -> (
        match Placer.effort_of_string (String.lowercase_ascii s) with
        | Some e -> e
        | None -> Placer.Quick)
    | None -> Placer.Quick
  in
  let scale =
    match env "TQEC_SCALE" with
    | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> v | _ -> 1)
    | None -> 1
  in
  let seed =
    match env "TQEC_SEED" with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> 42)
    | None -> 42
  in
  let auto_scale = env "TQEC_FULLSIZE" = None in
  let restarts =
    match env "TQEC_RESTARTS" with
    | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> v | _ -> 1)
    | None -> 1
  in
  let jobs =
    match env "TQEC_JOBS" with
    | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> Some v | _ -> None)
    | None -> None
  in
  (* TQEC_EARLY_STOP: relative margin for adaptive multi-start early
     stopping ("0.05" = 5%); "off" (or any non-float) disables it. *)
  let early_stop_margin =
    match env "TQEC_EARLY_STOP" with
    | Some s -> (
        match float_of_string_opt s with
        | Some m when m >= 0. -> Some m
        | _ -> None)
    | None -> Pipeline.default_config.Pipeline.early_stop_margin
  in
  { effort; scale; auto_scale; seed; benchmarks = Suite.names; restarts; jobs;
    early_stop_margin; partition = partition_from_env ();
    debug = env "TQEC_DEBUG" <> None }

let run_benchmark config (entry : Suite.entry) =
  let factor =
    if config.auto_scale then max config.scale (auto_factor entry)
    else config.scale
  in
  let circuit = Suite.scaled ~factor entry in
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let stats = Icm.stats icm in
  let lin1d = Baselines.lin_1d icm and lin2d = Baselines.lin_2d icm in
  let run variant =
    Pipeline.run_icm
      ~config:
        {
          Pipeline.default_config with
          variant;
          effort = config.effort;
          seed = config.seed;
          restarts = config.restarts;
          early_stop_margin = config.early_stop_margin;
          partition = config.partition;
          debug = config.debug;
          (* placement multi-start lanes share the same persistent
             pool as the suite fan-out: a blocked instance helps drain
             nested tasks, so nesting composes without oversubscription
             and small suites soak idle workers with restarts — and the
             output is jobs-invariant either way *)
          jobs = config.jobs;
        }
      icm
  in
  let dual_only = run Pipeline.Dual_only in
  let ours = run Pipeline.Full in
  {
    Report.r_name = entry.Suite.spec.Generator.name;
    r_stats = stats;
    r_modules = ours.Pipeline.stages.Pipeline.st_modules;
    r_nodes = ours.Pipeline.stages.Pipeline.st_nodes;
    r_canonical = Baselines.canonical_volume icm;
    r_lin1d = lin1d.Baselines.l_volume;
    r_lin2d = lin2d.Baselines.l_volume;
    r_dual_only = dual_only.Pipeline.volume;
    r_dual_only_runtime = dual_only.Pipeline.elapsed;
    r_ours = ours.Pipeline.volume;
    r_ours_runtime = ours.Pipeline.elapsed;
    r_paper = entry.Suite.paper;
    r_scale =
      (if config.auto_scale then max config.scale (auto_factor entry)
       else config.scale);
    r_routed =
      dual_only.Pipeline.routing.Tqec_route.Pathfinder.success
      && ours.Pipeline.routing.Tqec_route.Pathfinder.success;
  }

(* Suite instances are independent: fan them out across domains.  Rows
   come back in suite order whatever the worker count, and each instance
   is seeded from the config alone, so parallel runs reproduce serial
   ones bit for bit. *)
let run_all config =
  Suite.all
  |> List.filter (fun (e : Suite.entry) ->
         List.mem e.Suite.spec.Generator.name config.benchmarks)
  |> Array.of_list
  |> Tqec_util.Pool.map ?jobs:config.jobs (run_benchmark config)
  |> Array.to_list

let fig1_series () =
  let icm = Decompose.run Suite.three_cnot_example in
  let run variant =
    (Pipeline.run_icm
       ~config:
         { Pipeline.default_config with variant; effort = Placer.Normal }
       icm)
      .Pipeline.volume
  in
  [
    ("canonical", Baselines.canonical_volume icm, 54);
    ("topological deformation", run Pipeline.Modular_only, 32);
    ("dual-only bridging", run Pipeline.Dual_only, 18);
    ("primal+dual bridging (ours)", run Pipeline.Full, 6);
  ]

let render_all config =
  let rows = run_all config in
  String.concat "\n"
    [
      Report.table1 rows;
      Report.table2 rows;
      Report.table3 rows;
      Report.fig1 (fig1_series ());
      Report.summary rows;
    ]
