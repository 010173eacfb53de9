(** The scale matrix and the chaos soak: generated scenarios × the
    paper's four approaches, run through {!Runner} in parallel with
    per-scenario verdicts. *)

(** A scenario named by its generator profile. *)
type cell =
  | Generated of { model : Gen.model; routers : int; seed : int }
      (** {!Gen.scenario} *)
  | Soak of { seed : int }  (** {!Gen.soak} *)

type row = {
  r_cell : cell;
  r_name : string;
  r_digest : string;  (** {!Desc.digest} of the generated scenario *)
  r_size : string;  (** {!Desc.size_summary} *)
  r_outcomes : Runner.outcome list;  (** paper order, approaches 1-4 *)
}

val cells :
  ?sizes:int list -> ?models:Gen.model list -> ?seeds:int -> base_seed:int -> unit -> cell list
(** The cartesian product, default sizes [25; 50; 100] × both models ×
    [seeds] (default 1) consecutive seeds from [base_seed]. *)

val desc_of : cell -> Desc.t
(** The generated descriptor a cell names (pure; any worker regenerates
    the identical value). *)

val row : cell -> Runner.outcome list -> row
(** A row over the given outcomes (the cell's descriptor is
    regenerated to name it). *)

val run : ?jobs:int -> cell list -> row list
(** Runs every (cell, approach) task through {!Parallel.map} — results
    come back in input order, so the rows are identical whatever
    [jobs] is. *)

val violation_total : row list -> int

val to_json : row list -> Obs.Json.t
(** Schema ["mmcast-scale/1"].  A row names its cell by ["model"]
    (["waxman"], ["pref"] or ["soak"]), ["seed"] and, for generated
    cells, ["routers"]. *)

val pp_table : Format.formatter -> row list -> unit
(** One line per row, counters summed over its outcomes. *)
