(** First-class scenario descriptors.

    A descriptor is a pure data value holding everything that defines a
    scale-suite scenario: the router graph and its LANs, the hosts and
    where they are homed, the senders, the group-membership and
    handover churn schedule, the fault schedule, and the protocol
    knobs that matter for reproduction (seed, graft enablement).

    Because it is plain data, a descriptor can be generated
    procedurally ({!Gen}), executed under the invariant monitor
    ({!Runner}), mutated structurally by the delta-debugging shrinker
    ({!Shrink}), serialized to JSON and loaded back bit-for-bit
    ({!to_json}/{!of_json}) — which is what makes a minimal failing
    scenario replayable from its reproduction manifest alone. *)

type traffic = {
  tr_from : float;  (** first datagram, simulated seconds *)
  tr_until : float;
  tr_interval : float;
  tr_bytes : int;
}

type event =
  | Join of { at : float; host : string; group : int }
  | Leave of { at : float; host : string; group : int }
  | Move of { at : float; host : string; link : string }
      (** handover of [host] to [link] *)

type fault =
  | Loss of { link : string; rate : float; from_t : float; until : float }
  | Flap of { link : string; down_at : float; up_at : float }
  | Crash of { router : string; at : float; recover_at : float }

(** Per-delivery impairment windows on a link ({!Faults.spec}'s
    duplicate, reorder and corrupt windows). *)
type window =
  | Duplicate of { link : string; rate : float; from_t : float; until : float }
  | Reorder of { link : string; rate : float; jitter : float; from_t : float; until : float }
      (** [jitter]: max extra delivery delay, seconds *)
  | Corrupt of { link : string; rate : float; from_t : float; until : float }

type t = {
  d_name : string;
  d_seed : int;
  d_links : (string * string) list;  (** (name, /64 prefix) *)
  d_routers : (string * string list * string list) list;
      (** (name, attached links, home-agent links) *)
  d_hosts : (string * string) list;  (** (name, home link) *)
  d_senders : (string * int) list;  (** (host, group index) *)
  d_traffic : traffic;
  d_events : event list;  (** chronological *)
  d_faults : fault list;
  d_windows : window list;
  d_duration : float;
  d_disable_graft : bool;
      (** the deliberately-broken PIM variant ([--disable-graft]) — part
          of the descriptor so a reproduction replays the same bug *)
  d_wire_check : bool;
      (** serialize and re-parse every delivered frame
          ({!Net.Network.set_wire_check}) for the whole run *)
}

val schema : string
(** ["mmcast-scenario/1"]. *)

val group_addr : int -> Ipv6.Addr.t
(** Group index [i] maps to [ff0e::1:<i+1>]. *)

val event_time : event -> float

val validate : t -> (unit, string) result
(** Structural soundness, checked before {!Runner.run} builds
    anything: every referenced link/router/host exists, every
    link prefix parses as a /64 or shorter and none contains another
    link's (nor equals it),
    every host's home link is served by a home agent, group indices
    are within what {!group_addr} encodes, times are finite and
    non-negative, the traffic interval is positive and the datagram
    size within [Ipv6.Codec.data_min_bytes..data_max_bytes], and events
    and the onset of every fault and window fall within the run (a
    repair may fall after it). *)

val connected : t -> bool
(** BFS over the descriptor's attachment graph (routers via their
    attached links, hosts via their home links) without instantiating
    a network. *)

val backbone_links : t -> string list
(** Links attached to two or more routers with no host homed on them —
    the redundant edges the shrinker may try to drop. *)

val size_summary : t -> string
(** ["25r/49l/8h/14ev/2f"] — for tables and shrink logs; windows count
    as faults. *)

val to_json : t -> Obs.Json.t
(** The ["windows"] and ["wire_check"] keys are written only when the
    list is non-empty or the flag set, so descriptors without them
    encode (and digest) exactly as before those fields existed. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; rejects documents with a different
    {!schema}.  Absent ["windows"]/["wire_check"] keys read as [[]] and
    [false]. *)

val digest : t -> string
(** Hex digest of the canonical JSON encoding: equal descriptors digest
    equal, so suite rows and reproduction manifests can name scenarios
    stably. *)
