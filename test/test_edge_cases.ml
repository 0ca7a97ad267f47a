(* Edge-case and failure-injection tests across all libraries. *)

open Tqec_util
open Tqec_circuit
open Tqec_icm
open Tqec_compress

let check = Alcotest.check
let vec = Vec3.make
let issues r = Tqec_verify.Violation.to_strings (Pipeline.verify r)

(* ------------------------------------------------------------------ *)
(* Degenerate circuits through the whole flow                          *)
(* ------------------------------------------------------------------ *)

let quick = { Pipeline.default_config with effort = Tqec_place.Placer.Quick }

let test_single_cnot_pipeline () =
  let c =
    Circuit.make ~name:"one" ~n_qubits:2 [ Gate.Cnot { control = 0; target = 1 } ]
  in
  let r = Pipeline.run ~config:quick c in
  check Alcotest.bool "routes" true r.Pipeline.routing.Tqec_route.Pathfinder.success;
  check Alcotest.(list string) "sound" [] (issues r)

let test_gateless_wire_pipeline () =
  (* wire 2 never used: flows through without canonical rails *)
  let c =
    Circuit.make ~name:"sparse" ~n_qubits:3
      [ Gate.Cnot { control = 0; target = 1 } ]
  in
  let icm = Decompose.run c in
  check Alcotest.int "rails skip unused" 2 (Tqec_geom.Canonical.used_rows icm);
  let r = Pipeline.run_icm ~config:quick icm in
  check Alcotest.bool "still sound" true (issues r = [])

let test_pauli_only_circuit () =
  (* no CNOTs at all: zero canonical volume, no nets to route *)
  let c = Circuit.make ~name:"paulis" ~n_qubits:2 [ Gate.X 0; Gate.Z 1 ] in
  let icm = Decompose.run c in
  check Alcotest.int "no defect volume" 0 (Tqec_geom.Canonical.defect_volume icm);
  check Alcotest.int "lin steps zero" 0 (Baselines.lin_1d icm).Baselines.l_steps

let test_t_only_circuit_pipeline () =
  let c = Circuit.make ~name:"t" ~n_qubits:1 [ Gate.T 0 ] in
  let r = Pipeline.run ~config:quick c in
  check Alcotest.bool "sound" true (issues r = []);
  (* 3 distillation boxes placed: volume at least their footprints *)
  check Alcotest.bool "volume covers boxes" true (r.Pipeline.volume >= 192 + 18 + 18)

let test_deep_t_chain () =
  (* many T gadgets on one wire: a long time-SM strip must stay legal *)
  let c =
    Circuit.make ~name:"tchain" ~n_qubits:1 (List.init 6 (fun _ -> Gate.T 0))
  in
  let r = Pipeline.run ~config:quick c in
  check Alcotest.bool "sound" true (issues r = []);
  let sm_nodes =
    Array.to_list r.Pipeline.placement.Tqec_place.Placer.sm.Tqec_place.Super_module.nodes
    |> List.filter (fun nd ->
           match nd.Tqec_place.Super_module.nd_kind with
           | Tqec_place.Super_module.Time_sm _ -> true
           | _ -> false)
  in
  check Alcotest.int "one strip" 1 (List.length sm_nodes);
  (* 6 gadgets x 5 ordered measurements each *)
  match (List.hd sm_nodes).Tqec_place.Super_module.nd_kind with
  | Tqec_place.Super_module.Time_sm { modules; _ } ->
      check Alcotest.int "30 ordered modules" 30 (List.length modules)
  | _ -> assert false

(* Fuzz-fleet regression pins: circuits with no placeable module used
   to raise ("Placer.place: no nodes") or report a phantom volume of 1
   (the bbox fold was seeded with a zero cell).  The whole flow now
   returns the empty placement with volume 0 and verifies clean. *)
let test_empty_circuit_pipeline () =
  List.iter
    (fun n_qubits ->
      let c =
        Circuit.make ~name:(Printf.sprintf "empty%d" n_qubits) ~n_qubits []
      in
      let r = Pipeline.run ~config:quick c in
      check Alcotest.int "volume 0" 0 r.Pipeline.volume;
      check Alcotest.int "no nodes" 0
        (Array.length r.Pipeline.placement.Tqec_place.Placer.node_pos);
      check Alcotest.bool "routes (vacuous)" true
        r.Pipeline.routing.Tqec_route.Pathfinder.success;
      check Alcotest.(list string) "sound" [] (issues r))
    [ 1; 3 ]

let test_pauli_only_pipeline_full_flow () =
  (* X/Z fold into the Pauli frame: no modules, no nets, volume 0 *)
  let c = Circuit.make ~name:"paulis" ~n_qubits:2 [ Gate.X 0; Gate.Z 1 ] in
  let r = Pipeline.run ~config:quick c in
  check Alcotest.int "volume 0" 0 r.Pipeline.volume;
  check Alcotest.(list string) "sound" [] (issues r)

let test_h_only_pipeline () =
  (* H only flips the interpretation frame: still module-free *)
  let c = Circuit.make ~name:"hs" ~n_qubits:2 [ Gate.H 0; Gate.H 0; Gate.H 1 ] in
  let r = Pipeline.run ~config:quick c in
  check Alcotest.int "volume 0" 0 r.Pipeline.volume;
  check Alcotest.(list string) "sound" [] (issues r)

let test_empty_circuit_partitioned () =
  (* the divide-and-conquer path must also survive zero nodes *)
  let c = Circuit.make ~name:"empty" ~n_qubits:2 [] in
  let config = { quick with Pipeline.partition = Some 1 } in
  let r = Pipeline.run ~config c in
  check Alcotest.int "volume 0" 0 r.Pipeline.volume;
  check Alcotest.(list string) "sound" [] (issues r)

let test_partition_zero_nodes () =
  check Alcotest.int "empty partition" 0
    (Array.length (Tqec_place.Partition.run ~n:0 ~nets:[||] ~max_part:4))

(* ------------------------------------------------------------------ *)
(* Parser / format edges                                               *)
(* ------------------------------------------------------------------ *)

let test_revlib_empty_body () =
  let c = Revlib.parse_string ~name:"e" ".numvars 2\n.begin\n.end\n" in
  check Alcotest.int "no gates" 0 (Circuit.n_gates c);
  check Alcotest.int "wires from numvars" 2 c.Circuit.n_qubits

let test_revlib_crlf_and_tabs () =
  let c = Revlib.parse_string ~name:"w" ".numvars 2\n.begin\nt2\tx0  x1\n.end\n" in
  check Alcotest.int "one gate" 1 (Circuit.n_gates c)

let test_revlib_case_insensitive_directives () =
  let c = Revlib.parse_string ~name:"c" ".NUMVARS 2\n.BEGIN\nt1 x1\n.END\n" in
  check Alcotest.int "parsed" 1 (Circuit.n_gates c)

let test_revlib_gate_after_end_ignored () =
  let c =
    Revlib.parse_string ~name:"g" ".numvars 2\n.begin\nt1 x0\n.end\nt1 x1\n"
  in
  check Alcotest.int "stops at .end" 1 (Circuit.n_gates c)

(* ------------------------------------------------------------------ *)
(* Geometry / routing edges                                            *)
(* ------------------------------------------------------------------ *)

let test_grid_one_cell () =
  let g = Tqec_route.Grid.create (Box3.of_cell (vec 0 0 0)) in
  check Alcotest.bool "in bounds" true (Tqec_route.Grid.in_bounds g (vec 0 0 0));
  check Alcotest.bool "out" false (Tqec_route.Grid.in_bounds g (vec 1 0 0))

let test_astar_source_is_target () =
  let g = Tqec_route.Grid.create (Box3.make (vec 0 0 0) (vec 3 3 3)) in
  match
    Tqec_route.Astar.search g
      ~region:(Box3.make (vec 0 0 0) (vec 3 3 3))
      ~penalty:1
      ~sources:[ vec 1 1 1 ]
      ~target:(vec 1 1 1)
  with
  | Some [ p ] -> check Alcotest.bool "trivial path" true (Vec3.equal p (vec 1 1 1))
  | Some _ -> Alcotest.fail "expected singleton path"
  | None -> Alcotest.fail "expected trivial path"

let test_astar_expansion_cap () =
  let g = Tqec_route.Grid.create (Box3.make (vec 0 0 0) (vec 9 9 9)) in
  check Alcotest.bool "budget exhausted" true
    (Tqec_route.Astar.search ~max_expansions:1 g
       ~region:(Box3.make (vec 0 0 0) (vec 9 9 9))
       ~penalty:1
       ~sources:[ vec 0 0 0 ]
       ~target:(vec 9 9 9)
    = None)

let test_pathfinder_empty_nets () =
  let g = Tqec_route.Grid.create (Box3.make (vec 0 0 0) (vec 3 3 3)) in
  let r = Tqec_route.Pathfinder.route_all g Tqec_route.Pathfinder.default_config [] in
  check Alcotest.bool "vacuous success" true r.Tqec_route.Pathfinder.success

let test_defect_single_vertex () =
  check Alcotest.bool "single primal vertex valid open" true
    (Tqec_geom.Defect.valid_path ~dtype:Tqec_geom.Defect.Primal ~closed:false
       [ vec 0 0 0 ]);
  check Alcotest.bool "single vertex cannot close" false
    (Tqec_geom.Defect.valid_path ~dtype:Tqec_geom.Defect.Primal ~closed:true
       [ vec 0 0 0 ])

let test_loop_of_corners_rejects_overlap () =
  (* a figure-eight corner list revisits a vertex *)
  try
    ignore
      (Tqec_geom.Defect.loop_of_corners ~id:0 ~structure:0
         ~dtype:Tqec_geom.Defect.Primal
         [ vec 0 0 0; vec 4 0 0; vec 4 2 0; vec 0 2 0; vec 0 0 0; vec 2 0 0 ]);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Scheduling / constraints edges                                      *)
(* ------------------------------------------------------------------ *)

let test_schedule_empty () =
  let icm = Decompose.run (Circuit.make ~name:"e" ~n_qubits:1 []) in
  check Alcotest.int "zero depth" 0 (Schedule.asap icm).Schedule.depth;
  check (Alcotest.float 1e-9) "zero parallelism" 0. (Schedule.parallelism icm)

let test_constraints_empty () =
  let icm = Decompose.run (Circuit.make ~name:"e" ~n_qubits:1 []) in
  check Alcotest.int "no pairs" 0 (List.length (Constraints.of_icm icm));
  check Alcotest.int "order covers all" (Array.length icm.Icm.meas)
    (List.length (Constraints.topological_order icm))

(* ------------------------------------------------------------------ *)
(* Generator edges                                                     *)
(* ------------------------------------------------------------------ *)

let test_generator_coverage_guarantee () =
  (* every active wire is touched by a CNOT or Toffoli even when the
     gate count barely covers the wires *)
  let spec =
    { Generator.name = "cov"; n_wires = 10; n_toffoli = 2; n_cnot = 3;
      n_not = 0; n_unused = 2; seed = 77 }
  in
  let c = Generator.generate spec in
  let used = Array.make 10 false in
  List.iter
    (fun g ->
      match (g : Gate.t) with
      | Cnot _ | Toffoli _ -> List.iter (fun q -> used.(q) <- true) (Gate.qubits g)
      | _ -> ())
    c.Circuit.gates;
  for w = 0 to 7 do
    check Alcotest.bool (Printf.sprintf "wire %d used" w) true used.(w)
  done;
  check Alcotest.bool "unused tail untouched" false (used.(8) || used.(9))

let test_generator_rejects_impossible () =
  let spec =
    { Generator.name = "bad"; n_wires = 3; n_toffoli = 1; n_cnot = 0;
      n_not = 0; n_unused = 1; seed = 1 }
  in
  try
    ignore (Generator.generate spec);
    Alcotest.fail "expected rejection (2 active wires, needs 3)"
  with Invalid_argument _ -> ()

let test_tier_name_hardening () =
  (* well-formed *)
  check Alcotest.(option int) "x1" (Some 1) (Generator.tier_factor_of_name "tier-x1");
  check Alcotest.(option int) "x007" (Some 7)
    (Generator.tier_factor_of_name "tier-x007");
  check Alcotest.(option int) "max" (Some Generator.max_tier_factor)
    (Generator.tier_factor_of_name
       (Printf.sprintf "tier-x%d" Generator.max_tier_factor));
  (* malformed: zero, negative, non-numeric, radix prefixes, overflow *)
  List.iter
    (fun name ->
      check Alcotest.(option int) name None (Generator.tier_factor_of_name name);
      check Alcotest.bool (name ^ " no circuit") true
        (Generator.tier_of_name name = None))
    [
      "tier-x0"; "tier-x-3"; "tier-x"; "tier-xx"; "tier-x1.5"; "tier-x1e3";
      "tier-x0x10"; "tier-x0b1"; "tier-x1_0"; "tier-x+2"; "tier-x 2";
      "tier-x100001"; "tier-x99999999999999999999999"; "tier-y4"; "rd84_142";
    ]

let test_peak_rss_degrades () =
  let write content =
    let path = Filename.temp_file "tqec-status" ".txt" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  (* a real-looking status file parses *)
  let ok = write "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t 99 kB\n" in
  check Alcotest.(option int) "parses VmHWM" (Some 123456)
    (Stats.peak_rss_kb ~path:ok ());
  (* missing file, missing field, digit-free field: None, no exception *)
  check Alcotest.(option int) "missing file" None
    (Stats.peak_rss_kb ~path:"/nonexistent/status" ());
  let absent = write "Name:\tx\nVmRSS:\t 99 kB\n" in
  check Alcotest.(option int) "field absent" None
    (Stats.peak_rss_kb ~path:absent ());
  let garbage = write "VmHWM:\tkB\n" in
  check Alcotest.(option int) "digit-free field" None
    (Stats.peak_rss_kb ~path:garbage ());
  List.iter Sys.remove [ ok; absent; garbage ];
  (* and the live Linux path still answers on this platform *)
  match Stats.peak_rss_kb () with
  | Some kb -> check Alcotest.bool "positive" true (kb > 0)
  | None -> ()

let test_suite_scaled_floor () =
  (* extreme scaling still yields a legal circuit *)
  let e = List.hd Suite.all in
  let c = Suite.scaled ~factor:10_000 e in
  check Alcotest.bool "non-empty" true (Circuit.n_gates c > 0);
  check Alcotest.bool "has toffoli" true (Circuit.count_toffoli c >= 1)

(* ------------------------------------------------------------------ *)
(* Report / pretty edges                                               *)
(* ------------------------------------------------------------------ *)

let test_report_empty_rows () =
  (* fig1 renderer with an empty series still renders a header *)
  let s = Report.fig1 [] in
  check Alcotest.bool "renders" true (String.length s > 0)

let test_pretty_aligns () =
  let t = Pretty.create ~aligns:[ Pretty.Left; Pretty.Left ] [ "a"; "b" ] in
  Pretty.add_row t [ "xx"; "y" ];
  let s = Pretty.render t in
  check Alcotest.bool "left aligned" true (String.length s > 0)

let suites =
  [
    ( "edge.pipeline",
      [
        Alcotest.test_case "single cnot" `Quick test_single_cnot_pipeline;
        Alcotest.test_case "gateless wire" `Quick test_gateless_wire_pipeline;
        Alcotest.test_case "pauli only" `Quick test_pauli_only_circuit;
        Alcotest.test_case "t only" `Quick test_t_only_circuit_pipeline;
        Alcotest.test_case "deep T chain" `Quick test_deep_t_chain;
        Alcotest.test_case "empty circuit" `Quick test_empty_circuit_pipeline;
        Alcotest.test_case "pauli-only full flow" `Quick
          test_pauli_only_pipeline_full_flow;
        Alcotest.test_case "h only" `Quick test_h_only_pipeline;
        Alcotest.test_case "empty partitioned" `Quick
          test_empty_circuit_partitioned;
        Alcotest.test_case "partition n=0" `Quick test_partition_zero_nodes;
      ] );
    ( "edge.revlib",
      [
        Alcotest.test_case "empty body" `Quick test_revlib_empty_body;
        Alcotest.test_case "tabs" `Quick test_revlib_crlf_and_tabs;
        Alcotest.test_case "case-insensitive" `Quick
          test_revlib_case_insensitive_directives;
        Alcotest.test_case "after .end" `Quick test_revlib_gate_after_end_ignored;
      ] );
    ( "edge.geometry-routing",
      [
        Alcotest.test_case "one-cell grid" `Quick test_grid_one_cell;
        Alcotest.test_case "source is target" `Quick test_astar_source_is_target;
        Alcotest.test_case "expansion cap" `Quick test_astar_expansion_cap;
        Alcotest.test_case "empty nets" `Quick test_pathfinder_empty_nets;
        Alcotest.test_case "single vertex defect" `Quick test_defect_single_vertex;
        Alcotest.test_case "self-overlapping loop" `Quick
          test_loop_of_corners_rejects_overlap;
      ] );
    ( "edge.schedule-constraints",
      [
        Alcotest.test_case "empty schedule" `Quick test_schedule_empty;
        Alcotest.test_case "empty constraints" `Quick test_constraints_empty;
      ] );
    ( "edge.generator",
      [
        Alcotest.test_case "coverage guarantee" `Quick
          test_generator_coverage_guarantee;
        Alcotest.test_case "impossible spec" `Quick test_generator_rejects_impossible;
        Alcotest.test_case "tier name hardening" `Quick test_tier_name_hardening;
        Alcotest.test_case "peak rss degrades" `Quick test_peak_rss_degrades;
        Alcotest.test_case "scaled floor" `Quick test_suite_scaled_floor;
      ] );
    ( "edge.report",
      [
        Alcotest.test_case "empty fig1" `Quick test_report_empty_rows;
        Alcotest.test_case "pretty aligns" `Quick test_pretty_aligns;
      ] );
  ]
