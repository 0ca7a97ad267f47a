(* Compressing a reversible ripple-carry adder.

   Builds an n-bit in-place ripple-carry adder (the Cuccaro MAJ/UMA
   construction: Toffoli and CNOT gates only) with the public circuit
   API, lowers it to Clifford+T and ICM, and compares the space-time
   volume of the canonical form, the Lin et al. [11] baselines, Hsu et
   al.'s dual-only bridging [10] and the paper's primal+dual bridging —
   the add16_174-style workload from the paper's evaluation.

   Run with:  dune exec examples/adder_compression.exe [bits] *)

open Tqec_circuit
open Tqec_compress

(* MAJ gate: (c, b, a) -> computes carry in place. *)
let maj c b a =
  [
    Gate.Cnot { control = a; target = b };
    Gate.Cnot { control = a; target = c };
    Gate.Toffoli { c1 = c; c2 = b; target = a };
  ]

(* UMA gate: undoes MAJ and produces the sum. *)
let uma c b a =
  [
    Gate.Toffoli { c1 = c; c2 = b; target = a };
    Gate.Cnot { control = a; target = c };
    Gate.Cnot { control = c; target = b };
  ]

(* In-place adder: b <- a + b. Wires: carry-in, then per bit (a_i, b_i),
   then carry-out. *)
let ripple_carry_adder bits =
  let cin = 0 in
  let a i = 1 + (2 * i) in
  let b i = 2 + (2 * i) in
  let cout = 1 + (2 * bits) in
  let majs =
    List.concat
      (List.init bits (fun i ->
           let c = if i = 0 then cin else a (i - 1) in
           maj c (b i) (a i)))
  in
  let carry = [ Gate.Cnot { control = a (bits - 1); target = cout } ] in
  let umas =
    List.concat
      (List.init bits (fun j ->
           let i = bits - 1 - j in
           let c = if i = 0 then cin else a (i - 1) in
           uma c (b i) (a i)))
  in
  Circuit.make
    ~name:(Printf.sprintf "rc-adder-%d" bits)
    ~n_qubits:(cout + 1)
    (majs @ carry @ umas)

let () =
  let bits =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4
  in
  let circuit = ripple_carry_adder bits in
  Format.printf "%d-bit ripple-carry adder: %d qubits, %d Toffoli, %d CNOT@."
    bits circuit.Circuit.n_qubits
    (Circuit.count_toffoli circuit)
    (Circuit.count_cnots circuit);
  let icm = Tqec_icm.Decompose.run (Clifford_t.decompose circuit) in
  Format.printf "after decomposition: %a@.@." Tqec_icm.Icm.pp_stats
    (Tqec_icm.Icm.stats icm);

  let canonical = Baselines.canonical_volume icm in
  let lin1 = (Baselines.lin_1d icm).Baselines.l_volume in
  let lin2 = (Baselines.lin_2d icm).Baselines.l_volume in
  let run variant =
    Pipeline.run_icm
      ~config:
        { Pipeline.default_config with variant;
          effort = Tqec_place.Placer.Normal }
      icm
  in
  let dual = run Pipeline.Dual_only in
  let ours = run Pipeline.Full in
  let t = Tqec_util.Pretty.create [ "configuration"; "volume"; "vs ours" ] in
  let row name v =
    Tqec_util.Pretty.add_row t
      [
        name;
        Tqec_util.Pretty.int_with_commas v;
        Tqec_util.Pretty.float2
          (float_of_int v /. float_of_int ours.Pipeline.volume);
      ]
  in
  row "canonical" canonical;
  row "Lin [11] 1D" lin1;
  row "Lin [11] 2D" lin2;
  row "dual-only bridging [10]" dual.Pipeline.volume;
  row "primal+dual bridging (ours)" ours.Pipeline.volume;
  Tqec_util.Pretty.print t;
  Format.printf
    "@.B*-tree nodes: %d (dual-only) vs %d (ours) — primal bridging@."
    dual.Pipeline.stages.Pipeline.st_nodes ours.Pipeline.stages.Pipeline.st_nodes;
  Format.printf "merged %d modules into chains.@."
    (dual.Pipeline.stages.Pipeline.st_nodes
    - ours.Pipeline.stages.Pipeline.st_nodes);
  match Tqec_verify.Violation.to_strings (Pipeline.verify ours) with
  | [] -> Format.printf "all structural checks passed.@."
  | issues ->
      List.iter (Format.printf "check: %s@.") issues;
      exit 1
