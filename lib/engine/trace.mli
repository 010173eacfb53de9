(** The network's event trace, as a stream.

    Protocol modules record human-readable events here.  The trace does
    not keep them: the {!recent_capacity} newest sit in a fixed ring for
    {!recent} (the invariant monitor's violation excerpt), each record
    is folded into the run's {!digest} when the ring drops it, and
    {!on_record} observers see every record as it is written (the
    [mmcast_sim trace] command prints them, tests collect them).  Memory
    is one 16-byte digest partial per record, not the record itself.

    Cost: a folded record is rendered as ["%.9f|category|message\n"]
    into one reused buffer, its time by {!fixed9}'s writer rather than
    [Printf], and digested to a 16-byte partial, ~0.15 us; {!digest}
    folds the ring's records and hashes the partials once more.  The
    100-router scale cell's 29,855 records cost ~0.01 s in all, the cost
    that [digest] paid after the run when the trace kept every record;
    its [digest] now takes ~0.001 s.  The ring and buffers are
    allocated at the first record, so a trace nobody writes costs one
    small block. *)

type record = {
  at : Time.t;
  category : string;  (** e.g. ["mld"], ["pim"], ["mipv6"], ["link"] *)
  message : string;
}

type t

val create : Sim.t -> t

val record : t -> category:string -> string -> unit
(** Stamp the message with the current simulated time, put it in the
    ring, then call each {!on_record} observer. *)

val recordf : t -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!record} with a format string.  A [%a]/[%t] printer may
    itself record: its record is written first. *)

val on_record : t -> (record -> unit) -> unit
(** Called synchronously on every later record, after it is counted,
    in registration order. *)

val recent_capacity : int
(** 12: the size of the {!recent} ring. *)

val recent : t -> record list
(** The last {!recent_capacity} records (fewer if the trace is
    shorter), {e newest first}. *)

val count : t -> int
(** Records written so far. *)

val digest : t -> string
(** Hex MD5 over the 16-byte MD5 partials of every record's rendering
    (time at fixed precision, category, message), oldest first.  Two
    traces digest equal iff they hold the same records at the same
    times — the golden-trace regression tests pin these per approach so
    a refactor that silently changes protocol behaviour fails loudly.
    O(number of records); recording may continue afterwards. *)

val fixed9 : Time.t -> string
(** [fixed9 t] is [Printf.sprintf "%.9f" t], the time field of the
    rendering {!digest} hashes.  On [0 <= t * 1e9 < 2^52] it is computed
    without [Printf], from [t *. 1e9] and its [Float.fma] residual,
    rounded to nearest with ties to even as C's printf rounds the exact
    binary value; elsewhere (negative, non-finite or larger times) it
    falls back to [Printf]. *)

val pp_record : Format.formatter -> record -> unit
