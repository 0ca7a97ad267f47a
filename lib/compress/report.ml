module Icm = Tqec_icm.Icm
module Suite = Tqec_circuit.Suite
module Pretty = Tqec_util.Pretty
module Stats = Tqec_util.Stats

type row = {
  r_name : string;
  r_stats : Icm.stats;
  r_modules : int;
  r_nodes : int;
  r_canonical : int;
  r_lin1d : int;
  r_lin2d : int;
  r_dual_only : int;
  r_dual_only_runtime : float;
  r_ours : int;
  r_ours_runtime : float;
  r_paper : Suite.paper_row;
  r_scale : int;
  r_routed : bool;
}

let scale_note rows =
  if List.for_all (fun r -> r.r_scale = 1) rows then ""
  else
    Printf.sprintf
      "note: rows marked @1/k ran on instances scaled down by k; paper\n\
       reference values are for the full-size circuits.\n"

let name_of r =
  let name =
    if r.r_scale = 1 then r.r_name
    else Printf.sprintf "%s@1/%d" r.r_name r.r_scale
  in
  if r.r_routed then name else name ^ " (unrouted)"

(* An unrouted geometry is illegal, so its volume must not reach an
   average.  Averages take [routed rows] and the table says how many
   rows it left out. *)
let routed rows = List.filter (fun r -> r.r_routed) rows

let unrouted_note rows =
  match List.length rows - List.length (routed rows) with
  | 0 -> ""
  | n -> Printf.sprintf "averages exclude %d unrouted row(s)\n" n

let table1 rows =
  let t =
    Pretty.create
      [ "Benchmark"; "#Qubits"; "#CNOTs"; "#|Y>"; "#|A>"; "#Modules";
        "(paper)"; "#Nodes"; "(paper)" ]
  in
  List.iter
    (fun r ->
      Pretty.add_row t
        [
          name_of r;
          string_of_int r.r_stats.Icm.s_qubits;
          string_of_int r.r_stats.Icm.s_cnots;
          string_of_int r.r_stats.Icm.s_y;
          string_of_int r.r_stats.Icm.s_a;
          string_of_int r.r_modules;
          string_of_int r.r_paper.Suite.p_modules;
          string_of_int r.r_nodes;
          string_of_int r.r_paper.Suite.p_nodes;
        ])
    rows;
  "Table 1: benchmark statistics\n" ^ scale_note rows ^ Pretty.render t

(* Degenerate instances (zero volume / zero reference) make the ratio
   helpers return nan; render those cells as "n/a" and keep them out of
   the table averages instead of letting nan propagate. *)
let finite_cell fmt v = if Float.is_finite v then fmt v else "n/a"

let ratio_cell num den =
  finite_cell Pretty.float3 (Stats.ratio (float_of_int num) (float_of_int den))

let table2 rows =
  let t =
    Pretty.create
      [ "Benchmark"; "Canonical"; "Ratio"; "Lin[11] 1D"; "Ratio";
        "Lin[11] 2D"; "Ratio"; "Ours" ]
  in
  List.iter
    (fun r ->
      Pretty.add_row t
        [
          name_of r;
          Pretty.int_with_commas r.r_canonical;
          ratio_cell r.r_canonical r.r_ours;
          Pretty.int_with_commas r.r_lin1d;
          ratio_cell r.r_lin1d r.r_ours;
          Pretty.int_with_commas r.r_lin2d;
          ratio_cell r.r_lin2d r.r_ours;
          Pretty.int_with_commas r.r_ours;
        ])
    rows;
  let avg pick =
    Stats.mean_finite
      (List.map
         (fun r -> Stats.ratio (float_of_int (pick r)) (float_of_int r.r_ours))
         (routed rows))
  in
  let avg_cell pick = finite_cell Pretty.float3 (avg pick) in
  Pretty.add_rule t;
  Pretty.add_row t
    [
      "Avg. ratio"; ""; avg_cell (fun r -> r.r_canonical); "";
      avg_cell (fun r -> r.r_lin1d); "";
      avg_cell (fun r -> r.r_lin2d); "";
    ];
  let paper_avgs =
    Printf.sprintf
      "paper averages: canonical 24.037, Lin 1D 13.876, Lin 2D 12.778\n"
  in
  "Table 2: space-time volume vs canonical and Lin et al. [11]\n"
  ^ scale_note rows ^ Pretty.render t ^ unrouted_note rows ^ paper_avgs

let table3 rows =
  let t =
    Pretty.create
      [ "Benchmark"; "[10] Volume"; "Ratio"; "[10] Runtime(s)"; "Ours Volume";
        "Ours Runtime(s)"; "Paper ratio" ]
  in
  List.iter
    (fun r ->
      Pretty.add_row t
        [
          name_of r;
          Pretty.int_with_commas r.r_dual_only;
          ratio_cell r.r_dual_only r.r_ours;
          Pretty.float2 r.r_dual_only_runtime;
          Pretty.int_with_commas r.r_ours;
          Pretty.float2 r.r_ours_runtime;
          ratio_cell r.r_paper.Suite.p_hsu r.r_paper.Suite.p_ours;
        ])
    rows;
  Pretty.add_rule t;
  let avg =
    Stats.mean_finite
      (List.map
         (fun r ->
           Stats.ratio (float_of_int r.r_dual_only) (float_of_int r.r_ours))
         (routed rows))
  in
  Pretty.add_row t
    [ "Avg. ratio"; ""; finite_cell Pretty.float3 avg; ""; ""; ""; "2.121" ];
  "Table 3: space-time volume vs dual-only bridging (Hsu et al. [10])\n"
  ^ scale_note rows ^ Pretty.render t ^ unrouted_note rows

let fig1 series =
  let t = Pretty.create [ "Configuration"; "Volume"; "Paper" ] in
  List.iter
    (fun (name, measured, paper) ->
      Pretty.add_row t [ name; string_of_int measured; string_of_int paper ])
    series;
  "Figure 1: 3-CNOT example volume sequence\n" ^ Pretty.render t

let summary all_rows =
  let rows = routed all_rows in
  let avg pick =
    finite_cell
      (Printf.sprintf "%.2f")
      (Stats.mean_finite
         (List.map
            (fun r ->
              Stats.ratio (float_of_int (pick r)) (float_of_int r.r_ours))
            rows))
  in
  let reduction =
    finite_cell
      (Printf.sprintf "%.1f%%")
      (Stats.mean_finite
         (List.map
            (fun r ->
              Stats.percent_reduction
                (float_of_int r.r_dual_only)
                (float_of_int r.r_ours))
            rows))
  in
  Printf.sprintf
    "summary: average volume ratios vs ours — canonical %s (paper 24.04), \
     Lin 1D %s (paper 13.88), Lin 2D %s (paper 12.78), dual-only %s \
     (paper 2.12); average reduction over dual-only bridging %s (paper \
     47.4%%).\n%s"
    (avg (fun r -> r.r_canonical))
    (avg (fun r -> r.r_lin1d))
    (avg (fun r -> r.r_lin2d))
    (avg (fun r -> r.r_dual_only))
    reduction (unrouted_note all_rows)
