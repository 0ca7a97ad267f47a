(** Result records and table rendering for the experiment harness. *)

(** One benchmark's complete measurement set. *)
type row = {
  r_name : string;
  r_stats : Tqec_icm.Icm.stats;
  r_modules : int;  (** paper Table 1 "#Modules" *)
  r_nodes : int;  (** paper Table 1 "#Nodes" *)
  r_canonical : int;
  r_lin1d : int;
  r_lin2d : int;
  r_dual_only : int;  (** Hsu et al. [10] volume *)
  r_dual_only_runtime : float;
  r_ours : int;
  r_ours_runtime : float;
  r_paper : Tqec_circuit.Suite.paper_row;
  r_scale : int;  (** instance scale divisor (1 = full size) *)
  r_routed : bool;
      (** both pipeline runs (dual-only and ours) routed with no overused
          cell.  An unrouted row is marked in every table and left out
          of every average. *)
}

(** [table1 rows] renders benchmark statistics in the layout of the
    paper's Table 1, with paper reference values. *)
val table1 : row list -> string

(** [table2 rows] renders canonical and Lin [11] volumes with ratios to
    ours (paper Table 2).  The averages cover routed rows only; the
    table says how many rows were left out. *)
val table2 : row list -> string

(** [table3 rows] renders Hsu [10] vs ours volumes, ratios and runtimes
    (paper Table 3), averaged over routed rows like {!table2}. *)
val table3 : row list -> string

(** [fig1 series] renders the Fig. 1 volume sequence for the 3-CNOT
    example: canonical, topological deformation (modular), dual-only
    bridging, primal+dual bridging — measured vs paper. *)
val fig1 : (string * int * int) list -> string

(** [summary rows] one-paragraph paper-vs-measured digest (average
    ratios over routed rows). *)
val summary : row list -> string
