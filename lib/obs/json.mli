(** Escaping-correct JSON values.

    Every machine-readable document this code base writes (telemetry
    time-series, run manifests, the BENCH_*.json reports) goes through
    this emitter, so string fields — scenario names, git describe
    output, violation details — can never produce invalid JSON.  A
    small parser rides along so tests and the CI smoke job can validate
    emitted documents without external tools. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** emitted in the given key order *)

and t_float = float
(** Non-finite floats are emitted as [null] (JSON has no NaN). *)

val float : float -> t
(** [Float], via a guard that keeps the emitter total. *)

val opt : ('a -> t) -> 'a option -> t
(** [None] becomes [Null]. *)

val strings : string list -> t

val escape_string : string -> string
(** The quoted JSON literal for a string: quotes and backslashes
    escaped, control characters as [\u00XX], valid UTF-8 passed
    through. *)

val to_string : ?pretty:bool -> t -> string
(** Compact single line by default; [pretty] indents with two spaces. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit
(** Appends a trailing newline. *)

val write_file : ?pretty:bool -> path:string -> t -> unit

val ensure_dir : string -> unit
(** Create a directory and any missing parents; a directory that
    already exists (or appears concurrently) is not an error. *)

(** {2 Reading} *)

val of_string : string -> (t, string) result
(** Strict parser for everything the emitter produces (and standard
    JSON generally); numbers without [.]/[e] that fit an [int] decode
    as [Int]. *)

val of_file : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
(** Shape-checked accessors ([None] on any other constructor) — the
    scenario-descriptor loader decodes persisted reproductions with
    these instead of pattern-matching inline. *)
