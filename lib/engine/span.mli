(** Causal packet-lineage collector.

    A collector records {e spans} — intervals of simulated time
    attributed to a node, linked into trees by parent edges and across
    trees by {e causal} edges — plus point-in-time {e marks} used for
    handover latency breakdowns.  Every injected packet starts a fresh
    {e trace}; the span tree grown under that trace id records the
    packet's journey across links, tunnels and fan-out, and a typed
    {!drop_reason} terminates the branches that die.

    {b Storage.}  Spans live in a chunked columnar store: fixed chunks
    of 4,096 spans, one column per field (ints for trace, parent, cause,
    drop reason and name, strings for node, unboxed floats for the
    start and end times, and the attribute lists).  A span's id is its
    position.  A full store gains a chunk and never copies a recorded
    span; the first chunk is allocated by the first span, so an unused
    collector costs its intern table (127 words).  The
    {!span} record is a read-only {e view} built on demand by {!get},
    {!iter}, {!spans} and {!last_matching}; recording never builds one,
    and a span's name string is rendered only in a view.

    {b Cost.}  Recording a span writes nine column slots: nine retained
    words on a 64-bit host, and no more for a packet's name, which is
    an int ({!packet_name}).  What it allocates besides is the caller's:
    a name or shared attribute list costs nothing, so the instrumented
    hot paths pass packet names and shared lists ([Net.Network] builds
    its [("link", …)] and [("group", …)] lists once per link and group)
    and run nested work with {!within}, which costs one closure.  On
    perfbench's [fig1-lineage] workload lineage allocates about 19
    words per span in all, the nine retained ones included (it was 32
    when names were strings).

    Collection is owned by {!Sim.set_lineage} and is {b off by
    default}: no collector installed means the instrumented hot paths
    run their original allocation-free code (the {!Sim.enable_profiling}
    discipline).  The collector itself never draws randomness, writes
    no {!Trace} records and adds no delays, so enabling it cannot
    perturb a simulation's schedule or golden digests. *)

(** Why a packet (or one delivery of it) died, typed so tooling can
    aggregate per-reason counts. *)
type drop_reason =
  | Loss_fault  (** loss-rate fault injection ate this delivery *)
  | Link_down  (** link was down at transmit or delivery time *)
  | Not_attached  (** sender or receiver not attached to the link *)
  | No_handler  (** receiver has no protocol stack installed *)
  | Malformed  (** wire-check decode rejected the frame *)
  | Rpf_fail  (** PIM-DM: data arrived from an unroutable source *)
  | Pruned_iface  (** PIM-DM: no downstream interface wanted it *)
  | Hop_limit  (** hop limit expired in forwarding *)
  | No_route  (** unicast forwarding found no route / next hop *)
  | Not_joined  (** host received group traffic it is not joined to *)

val drop_reason_name : drop_reason -> string
val drop_reason_of_name : string -> drop_reason option
val all_drop_reasons : drop_reason list

(** A read-only view of one recorded span. *)
type span = {
  sp_id : int;
  sp_trace : int;  (** trace (injection) this span belongs to *)
  sp_parent : int;  (** parent span id, [-1] = trace root *)
  sp_name : string;
  sp_node : string;  (** node the work happened on, [""] if n/a *)
  sp_start : Time.t;
  sp_end : Time.t;
  sp_drop : drop_reason option;
  sp_cause : int;
      (** causal edge into another lineage ([-1] = none): the span that
          {e made} this one happen without being its tree parent — e.g.
          the received Prune that triggered a Graft. *)
  sp_attrs : (string * string) list;  (** newest first *)
}

type mark = {
  mk_at : Time.t;
  mk_name : string;
  mk_node : string;
  mk_attrs : (string * string) list;
}

type t

val create : label_of_code:(int -> string) -> unit -> t
(** An empty collector.  [label_of_code] renders the label code of a
    {!packet_name} (the network layers pass
    [Ipv6.Packet.label_of_code]); it is called only when a view is
    built. *)

(** {2 Span names}

    A span's name is an int.  A packet's span names its packet by the
    packet's label code and one of four verbs; any other name is
    interned in the collector's own table.  The string is rendered only
    when a view is built. *)

type name

type verb = Tx | Rx | Inject | Deliver
(** The word a packet's span name begins with: ["tx "], ["rx "],
    ["inject "] or ["deliver "]. *)

val verb_prefix : verb -> string
(** ["tx "], ["rx "], ["inject "], ["deliver "]. *)

val packet_name : verb -> int -> name
(** [packet_name v code] renders as [verb_prefix v ^ label_of_code code];
    it allocates nothing.
    @raise Invalid_argument for a negative code or one past 2{^60}−1. *)

val intern : t -> string -> name
(** The collector's name for a free-form string: one table lookup, and
    one entry the first time the string is seen. *)

val span_count : t -> int
val mark_count : t -> int

val get : t -> int -> span
(** @raise Invalid_argument for an unknown id. *)

val trace_of : t -> int -> int
(** [(get t id).sp_trace] without building a view.
    @raise Invalid_argument for an unknown id. *)

val iter : t -> (span -> unit) -> unit
val spans : t -> span list
val marks : t -> mark list

val fresh_trace : t -> int

(** {2 Ambient causal context}

    The collector carries the (trace, span) under which the engine is
    currently working; instrumentation reads it so a transmission that
    happens {e while handling} a received packet is automatically a
    child of that packet's receive span. *)

val context : t -> int * int
(** [(trace, span)]; [(-1, -1)] when outside any lineage. *)

val clear_context : t -> unit

val within : t -> int -> (unit -> 'a) -> 'a
(** [within t id f] runs [f] with the ambient context set to span [id]
    (and its trace), restoring the previous context when [f] returns or
    raises.  It is the one way to run work under a span: a handler
    running inside a receive span, or a timer callback re-entering the
    span it stored.  @raise Invalid_argument for an unknown id. *)

(** {2 Recording} *)

val open_span :
  t ->
  at:Time.t ->
  name:name ->
  node:string ->
  ?parent:int ->
  ?cause:int ->
  ?attrs:(string * string) list ->
  unit ->
  int
(** Parents to [?parent] if given (inheriting its trace), else to the
    ambient span; with no ambient context a fresh trace is started.
    [?attrs] are the span's initial attributes, newest first (the order
    of {!field-sp_attrs}); the list is stored as given, so a caller may
    share one list among many spans. *)

val close_span : t -> at:Time.t -> int -> unit

val event :
  t ->
  at:Time.t ->
  name:name ->
  node:string ->
  ?parent:int ->
  ?cause:int ->
  ?attrs:(string * string) list ->
  unit ->
  int
(** Zero-duration span (a state transition); same arguments as
    {!open_span}. *)

val drop :
  t -> at:Time.t -> node:string -> reason:drop_reason -> ?detail:string -> ?parent:int -> unit -> int
(** Terminal zero-duration span named ["drop:<reason>"] with
    {!field-sp_drop} set. *)

val mark : t -> at:Time.t -> name:string -> node:string -> ?attrs:(string * string) list -> unit -> unit

val restore : t -> span -> unit
(** Re-add a span loaded from disk, interning its name.  Ids must
    arrive in ascending 0-based order, each parent must be [-1] or an
    earlier span, and a cause must be [-1] or non-negative (that it
    names a span is for the loader to check once every span is in).
    @raise Invalid_argument otherwise. *)

val restore_mark : t -> mark -> unit

(** {2 Queries} *)

val last_matching :
  t ->
  ?before:Time.t ->
  ?dropped:bool ->
  ?node:string ->
  ?verb:verb ->
  (span -> bool) ->
  span option
(** Most recently opened span satisfying the predicate, starting at or
    before [?before], with [~dropped:true] carrying a drop reason, on
    [?node] if given, and with [?verb] named for that verb (a packet
    name with the verb, or an interned name beginning with
    {!verb_prefix}).  These filters are tested on the columns, so only
    candidate spans are viewed and handed to the predicate. *)

val drop_counts : t -> (drop_reason * int) list
(** Per-reason totals of the drop spans, in {!all_drop_reasons} order,
    omitting zero counts; read from the drop column alone. *)

val ancestry : t -> int -> span list
(** Root-first parent chain ending at the given span. *)

val causal_chain : t -> int -> span list
(** Like {!ancestry} but splicing each causal edge's own chain in
    front of the span it triggered; cycle-safe and bounded. *)

val render : span -> string
val render_chain : span list -> string list
