(** Simulation scenarios, including the paper's reference network.

    The Figure 1 internetwork: six links, five routers that are both
    PIM-DM routers and home agents (A serves Link 1, B Link 2, C
    Link 3, D Links 4 and 5, E Link 6), a multicast sender S homed on
    Link 1 and receivers homed on Links 1, 2 and 4. *)

open Ipv6
open Net

type spec = {
  seed : int;
  mld : Mld.Mld_config.t;
  pim : Pimdm.Pim_config.t;
  mipv6 : Mipv6.Mipv6_config.t;
  approach : Approach.t;
  ha_mode : Router_stack.ha_mode;
  ra_interval : Engine.Time.t option;
      (** When set, routers advertise and hosts use
          advertisement-based movement detection. *)
  ha_failover : bool;
      (** Run the home-agent redundancy protocol; hosts register with
          the per-link service address. *)
}

val default_spec : spec

type t = {
  sim : Engine.Sim.t;
  net : Network.t;
  spec : spec;
  routers : (string * Router_stack.t) list;
  hosts : (string * Host_stack.t) list;
}

val build :
  ?on_trace:(Engine.Trace.record -> unit) ->
  spec ->
  links:(string * string) list ->
  routers:(string * string list * string list) list ->
  hosts:(string * string) list ->
  t
(** [build spec ~links ~routers ~hosts] creates and starts a network.
    [links] are (name, prefix) pairs; [routers] are (name, attached
    links, home-agent links); [hosts] are (name, home link).  Every
    host is provisioned at the home agent of its home link.
    [on_trace] observes the network's trace ({!Engine.Trace.on_record})
    from its first record: starting the stacks already writes some.
    @raise Invalid_argument on dangling link names. *)

(** The arguments of {!build}, as one value. *)
type layout = {
  lay_links : (string * string) list;  (** (name, prefix) *)
  lay_routers : (string * string list * string list) list;
      (** (name, attached links, home-agent links) *)
  lay_hosts : (string * string) list;  (** (name, home link) *)
}

val figure1 : layout
(** The paper's Figure 1: links ["L1"]..["L6"], routers ["A"]..["E"],
    hosts ["S"], ["R1"], ["R2"], ["R3"]. *)

val paper_figure1 : spec -> t
(** {!build} over {!figure1}. *)

val group : Addr.t
(** The multicast group used throughout the experiments
    ([ff0e::1:1]). *)

val router : t -> string -> Router_stack.t
val host : t -> string -> Host_stack.t
val link : t -> string -> Ids.Link_id.t
(** @raise Invalid_argument for unknown names. *)

val run_until : t -> Engine.Time.t -> unit

val install_faults : t -> Faults.schedule -> Faults.t
(** Compile a fault schedule against this scenario's network.  [Crash]
    specs are mapped to {!Router_stack.fail}/{!Router_stack.recover} of
    the named router (a crashed router loses all soft state, exactly as
    the protocols assume).
    @raise Invalid_argument if a crash names a node that is not one of
    the scenario's routers. *)

val subscribe_receivers : t -> Addr.t -> unit
(** Subscribe every host whose name starts with ['R'] to a group. *)
