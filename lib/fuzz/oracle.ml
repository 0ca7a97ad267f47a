open Tqec_compress

type fault = Volume_misreport | Route_drop_cell | Placement_collide

let fault_of_string = function
  | "volume" -> Some Volume_misreport
  | "route" -> Some Route_drop_cell
  | "overlap" -> Some Placement_collide
  | _ -> None

let fault_name = function
  | Volume_misreport -> "volume"
  | Route_drop_cell -> "route"
  | Placement_collide -> "overlap"

let misreport (r : Pipeline.t) =
  { r with Pipeline.volume = r.Pipeline.volume + 1 }

let plant fault (r : Pipeline.t) =
  match fault with
  | Volume_misreport -> misreport r
  | Route_drop_cell -> (
      let routing = r.Pipeline.routing in
      let rec amputate = function
        | (route : Tqec_route.Pathfinder.routed) :: rest
          when List.length route.Tqec_route.Pathfinder.r_cells >= 2 ->
            Some
              ({
                 route with
                 Tqec_route.Pathfinder.r_cells =
                   List.tl route.Tqec_route.Pathfinder.r_cells;
               }
              :: rest)
        | route :: rest ->
            Option.map (fun tail -> route :: tail) (amputate rest)
        | [] -> None
      in
      match amputate routing.Tqec_route.Pathfinder.routes with
      | Some routes ->
          {
            r with
            Pipeline.routing =
              { routing with Tqec_route.Pathfinder.routes };
          }
      | None -> misreport r)
  | Placement_collide ->
      let p = r.Pipeline.placement in
      if Array.length p.Tqec_place.Placer.node_pos < 2 then misreport r
      else begin
        let node_pos = Array.copy p.Tqec_place.Placer.node_pos in
        node_pos.(1) <- node_pos.(0);
        { r with Pipeline.placement = { p with Tqec_place.Placer.node_pos } }
      end

(* Promoted into the pipeline library so the CLI and build rules can
   print/diff it; the oracle families keep their historical name. *)
let fingerprint = Pipeline.fingerprint

let run_with config circuit = Pipeline.run ~config circuit

(* family 4: serve codec.  A case expressed as a daemon request must
   survive encode -> decode byte-exactly — the wire format and the fuzz
   generator evolve independently, and this is the tripwire that keeps
   them in sync.  Pure value-level round-trip; no socket, no server. *)
let check_codec (case : Case.t) =
  let module P = Tqec_serve.Protocol in
  let text = Tqec_circuit.Qct.to_string case.Case.circuit in
  let request =
    P.Compress
      {
        input =
          P.Qct
            { name = case.Case.circuit.Tqec_circuit.Circuit.name; text };
        knobs =
          {
            P.default_knobs with
            P.seed = case.Case.seed;
            restarts = case.Case.restarts;
            jobs = Some case.Case.jobs;
            partition = case.Case.partition;
            corridor = case.Case.corridor_cells;
          };
      }
  in
  match P.decode_request (P.encode_request request) with
  | Ok decoded when decoded = request -> []
  | Ok _ -> [ "codec: decoded request differs from the encoded one" ]
  | Error m -> [ Printf.sprintf "codec: round-trip failed to decode: %s" m ]

let verify_failures ~label (r : Pipeline.t) =
  let report = Pipeline.verify r in
  let fails =
    if Tqec_verify.Violation.ok report then []
    else
      List.map
        (fun v -> label ^ ": " ^ Tqec_verify.Violation.to_string v)
        report.Tqec_verify.Violation.violations
  in
  if r.Pipeline.routing.Tqec_route.Pathfinder.success then fails
  else (label ^ ": routing rip-up did not converge") :: fails

let check_case ?fault (case : Case.t) =
  let config = Case.config_of case in
  let r = run_with config case.Case.circuit in
  match fault with
  | Some f ->
      (* fault mode: the mutation must be caught by the verify family
         alone; derived runs would re-run the clean pipeline and mask
         the plant *)
      verify_failures ~label:("fault " ^ fault_name f) (plant f r)
  | None ->
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
      (* family 4 first (cheap, pure): the serve-codec round trip *)
      List.iter (fun m -> failures := m :: !failures) (check_codec case);
      (* family 1: translation validation on the primary run *)
      List.iter (fun m -> failures := m :: !failures)
        (List.rev (verify_failures ~label:"verify" r));
      (* family 2: determinism.  jobs = 1 must be byte-identical to the
         case's jobs; a partition cap at the node count must be
         byte-identical to single-die placement *)
      let fp = fingerprint r in
      if case.Case.jobs > 1 then begin
        let r1 =
          run_with { config with Pipeline.jobs = Some 1 } case.Case.circuit
        in
        if fingerprint r1 <> fp then
          fail "determinism: jobs=1 diverges from jobs=%d (%s <> %s)"
            case.Case.jobs (fingerprint r1) fp
      end;
      let n_nodes =
        Array.length r.Pipeline.placement.Tqec_place.Placer.node_pos
      in
      if case.Case.partition = None && n_nodes > 0 then begin
        let rp =
          run_with
            { config with Pipeline.partition = Some n_nodes }
            case.Case.circuit
        in
        if fingerprint rp <> fp then
          fail "determinism: partition cap %d diverges from single-die"
            n_nodes
      end;
      (* family 5: corridor equivalence.  A case fuzzed with a small
         corridor threshold routed hierarchically (coarse tile-graph
         corridor + fine in-corridor search); re-run flat, the
         exhaustive router must also verify clean, the placement —
         computed before routing and blind to the corridor knob — must
         be bit-identical, and the routed bounding volume
         may differ only by detour slack (corridor tie-breaks pick
         different equal-cost shapes, but a corridor route that blows
         the volume past the calibrated band means the coarse pass
         guided the fine search somewhere catastrophic) *)
      (match case.Case.corridor_cells with
      | None -> ()
      | Some _ ->
          let rflat =
            run_with
              { config with Pipeline.corridor_cells = None }
              case.Case.circuit
          in
          List.iter
            (fun m -> failures := m :: !failures)
            (List.rev (verify_failures ~label:"corridor-flat" rflat));
          if
            rflat.Pipeline.placement.Tqec_place.Placer.node_pos
            <> r.Pipeline.placement.Tqec_place.Placer.node_pos
            || rflat.Pipeline.placement.Tqec_place.Placer.rotated
               <> r.Pipeline.placement.Tqec_place.Placer.rotated
          then fail "corridor: corridor threshold perturbed the placement";
          let v = r.Pipeline.volume and vf = rflat.Pipeline.volume in
          if v > (2 * vf) + 64 || vf > (2 * v) + 64 then
            fail
              "corridor: corridor volume %d vs flat %d beyond the detour band"
              v vf);
      (* family 3: metamorphic *)
      let idle =
        run_with config (Tqec_circuit.Generator.add_idle_qubit case.Case.circuit)
      in
      if idle.Pipeline.volume > r.Pipeline.volume then
        fail "metamorphic: idle qubit raised volume %d -> %d"
          r.Pipeline.volume idle.Pipeline.volume;
      let permuted =
        Tqec_circuit.Generator.permute_commuting ~seed:case.Case.seed
          ~swaps:
            (List.length case.Case.circuit.Tqec_circuit.Circuit.gates / 2)
          case.Case.circuit
      in
      let icm_stats c = Tqec_icm.Icm.stats (Tqec_icm.Decompose.run c) in
      if icm_stats permuted <> icm_stats case.Case.circuit then
        fail "metamorphic: commuting permutation changed the ICM statistics";
      let canonical = Baselines.canonical_volume r.Pipeline.icm in
      let canonical' =
        Baselines.canonical_volume (Tqec_icm.Decompose.run permuted)
      in
      if canonical' <> canonical then
        fail "metamorphic: commuting permutation moved canonical volume %d -> %d"
          canonical canonical';
      (* compression tripwire against the closed-form uncompressed
         baseline.  Per-instance dominance over the canonical volume is
         not a theorem — on tiny circuits a single distillation box plus
         routing clearance exceeds it (worst observed full/canonical =
         2.4x on one-gate circuits) — so the oracle is a calibrated
         bound that a catastrophic volume regression still trips *)
      if canonical = 0 then begin
        if r.Pipeline.volume <> 0 then
          fail "metamorphic: module-free circuit placed volume %d (want 0)"
            r.Pipeline.volume
      end
      else if r.Pipeline.volume > (3 * canonical) + 64 then
        fail
          "metamorphic: compression blew past the canonical baseline (full %d > 3 * %d + 64)"
          r.Pipeline.volume canonical;
      (* restarts monotonicity: the multi-start winner minimizes the
         annealer's cost (alpha * placed volume + beta * wirelength) and
         lane 0 always completes, so on a single die best-of-R is never
         worse than single-start {e in that cost}.  Routed volume is not
         the compared metric, and partitioned placement composes
         per-group winners whose stitching carries no global guarantee —
         so the check is scoped to unpartitioned runs and the SA cost *)
      if case.Case.restarts > 1 && case.Case.partition = None then begin
        let r1 =
          run_with { config with Pipeline.restarts = 1 } case.Case.circuit
        in
        let cost (p : Pipeline.t) =
          p.Pipeline.placement.Tqec_place.Placer.sa_stats
            .Tqec_place.Sa.best_cost
        in
        if cost r > cost r1 +. 1e-6 then
          fail "metamorphic: %d restarts beat by 1 restart (cost %.1f > %.1f)"
            case.Case.restarts (cost r) (cost r1)
      end;
      List.rev !failures
