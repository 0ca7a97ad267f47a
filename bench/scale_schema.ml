(* Schema gate for BENCH_scale.json (written by the TQEC_SCALE_TIER=1
   sweep in main.ml): parses the report with the serve JSON codec and
   checks every field plotting and build rules rely on, so a harness
   refactor that silently changes the report shape fails `dune runtest`
   instead of downstream tooling.

   Beyond shape, it pins the sweep's substance: every tier must record
   coarse searches (the sweep's low corridor threshold really engaged
   the hierarchical router), and no tier may record more flat
   fallbacks than coarse searches.  Fingerprint equality across
   repetitions is enforced by the sweep itself before the report is
   written.

   Usage: scale_schema.exe BENCH_scale.json *)

module Json = Tqec_serve.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "[scale-schema] FAIL: %s\n%!" m;
      exit 1)
    fmt

let need_int ~ctx name obj =
  match Option.bind (Json.member name obj) Json.to_int with
  | Some v -> v
  | None -> fail "%s: missing or non-integer field %S" ctx name

let need_str ~ctx name obj =
  match Option.bind (Json.member name obj) Json.to_str with
  | Some v -> v
  | None -> fail "%s: missing or non-string field %S" ctx name

let need_counters ~ctx name obj =
  match Json.member name obj with
  | Some (Json.Obj _ as c) ->
      (match Option.bind (Json.member "wall_s" c) Json.to_float with
      | Some w when w >= 0. -> ()
      | _ -> fail "%s.%s: missing or negative wall_s" ctx name);
      List.iter
        (fun f -> ignore (need_int ~ctx:(ctx ^ "." ^ name) f c))
        [
          "coarse_searches"; "fine_searches"; "flat_searches";
          "flat_fallbacks"; "scratch_grows";
        ];
      c
  | _ -> fail "%s: missing counters object %S" ctx name

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else fail "no path" in
  let text =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let root =
    match Json.of_string text with
    | v -> v
    | exception Json.Parse_error m -> fail "%s does not parse: %s" path m
  in
  let schema = need_str ~ctx:"root" "schema" root in
  if schema <> "tqec-bench-scale/2" then
    fail "unknown schema %S (want tqec-bench-scale/2)" schema;
  let effort = need_str ~ctx:"root" "effort" root in
  if not (List.mem effort [ "quick"; "normal"; "full" ]) then
    fail "bad effort %S" effort;
  ignore (need_int ~ctx:"root" "seed" root);
  ignore (need_int ~ctx:"root" "corridor_cells" root);
  if need_int ~ctx:"root" "reps" root < 1 then
    fail "reps must be at least 1";
  let tiers =
    match Option.bind (Json.member "tiers" root) Json.to_list with
    | Some (_ :: _ as l) -> l
    | Some [] -> fail "empty tiers list"
    | None -> fail "missing tiers list"
  in
  let total_coarse = ref 0 in
  List.iteri
    (fun i tier ->
      let ctx = Printf.sprintf "tiers[%d]" i in
      List.iter
        (fun f -> ignore (need_int ~ctx f tier))
        [ "tier"; "modules"; "nodes"; "volume"; "grid_cells"; "touched_cells" ];
      if need_str ~ctx "fingerprint" tier = "" then
        fail "%s: empty fingerprint" ctx;
      let router = need_counters ~ctx "router" tier in
      let rctx = ctx ^ ".router" in
      let coarse = need_int ~ctx:rctx "coarse_searches" router in
      let fallbacks = need_int ~ctx:rctx "flat_fallbacks" router in
      if coarse <= 0 then
        fail "%s: no coarse searches (hierarchical router not engaged)" ctx;
      if fallbacks > coarse then
        fail "%s: %d flat fallbacks exceed %d coarse searches" ctx fallbacks
          coarse;
      total_coarse := !total_coarse + coarse)
    tiers;
  Printf.printf "[scale-schema] %s ok: %d tiers, %d coarse searches\n%!" path
    (List.length tiers) !total_coarse
