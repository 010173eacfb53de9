(** In-memory event trace.

    Protocol modules record human-readable events here; tests assert on
    them and the benchmark harness prints them.  Recording can be
    disabled wholesale for long benchmark runs.

    Internally records are kept {e newest first} (constant-time
    prepend); {!records} presents them oldest first through a memoized
    reversal, and {!count} is answered from incrementally maintained
    total and per-category counters, so neither walks the full history
    on every call. *)

type record = {
  at : Time.t;
  category : string;  (** e.g. ["mld"], ["pim"], ["mipv6"], ["link"] *)
  message : string;
}

type t

val create : ?enabled:bool -> Sim.t -> t

val set_enabled : t -> bool -> unit

val enabled : t -> bool

val record : t -> category:string -> string -> unit

val recordf : t -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!record} with a format string.  When the trace is disabled
    nothing is rendered: the format arguments are consumed without
    being formatted (so even [%t]/[%a] closures are never called). *)

val records : t -> record list
(** All records, oldest first.  The reversal of the internal
    newest-first list is memoized until the next {!record}, so calling
    this repeatedly between recordings is cheap. *)

val by_category : t -> string -> record list
(** Oldest first, filtered from the memoized {!records} view. *)

val recent : t -> n:int -> record list
(** The most recent [n] records (fewer if the trace is shorter),
    {e newest first}, in O(n): the invariant monitor snapshots violation
    context this way without forcing the full memoized reversal. *)

val count : ?category:string -> t -> int
(** O(1): served from incrementally maintained counters, never by
    filtering the record list. *)

val digest : t -> string
(** Hex digest over every record (time at fixed precision, category,
    message), oldest first.  Two traces digest equal iff they hold the
    same records at the same times — the golden-trace regression tests
    pin these per approach so a refactor that silently changes protocol
    behaviour fails loudly.

    Cost: O(n) without forcing the memoized reversal.  Each record is
    rendered into one reused buffer, its time by {!fixed9}'s writer
    rather than [Printf], and costs one MD5 of the rendering and one
    16-byte partial; the partials are hashed once more at the end.  The
    100-router scale cell's 29,855 records digest in ~0.013 s (0.041 s
    through [Printf.sprintf] and [Buffer.contents] per record, measured
    by perfbench [--trace 1] on a 2-vCPU Xeon container). *)

val fixed9 : Time.t -> string
(** [fixed9 t] is [Printf.sprintf "%.9f" t], the time field of the
    rendering {!digest} hashes.  On [0 <= t * 1e9 < 2^52] it is computed
    without [Printf], from [t *. 1e9] and its [Float.fma] residual,
    rounded to nearest with ties to even as C's printf rounds the exact
    binary value; elsewhere (negative, non-finite or larger times) it
    falls back to [Printf]. *)

val clear : t -> unit

val pp_record : Format.formatter -> record -> unit

val pp : Format.formatter -> t -> unit
(** Dump the whole trace, one record per line. *)
