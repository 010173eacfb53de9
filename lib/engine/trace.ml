type event = ..

type record = {
  at : Time.t;
  category : string;
  event : event;
}

(* ---- renderers ---- *)

(* Registration order.  Written only while modules initialise, before
   any trace exists (see [register]), so the domains that run
   simulations only read it. *)
let renderers : (Line.t -> event -> bool) list ref = ref []
let sealed = Atomic.make false

let register f =
  if Atomic.get sealed then invalid_arg "Trace.register: a trace already exists";
  renderers := !renderers @ [ f ]

(* Top-level and closure-free: it runs for every folded record. *)
let rec render_with line event = function
  | [] -> invalid_arg "Trace: an event with no registered renderer"
  | f :: rest -> if not (f line event) then render_with line event rest

let render_into line event = render_with line event !renderers

let render event =
  let line = Line.create 64 in
  render_into line event;
  Line.contents line

let message r = render r.event

let recent_capacity = 12

type t = {
  sim : Sim.t;
  mutable total : int;
  (* The [recent_capacity] newest records; record [i] sits in slot
     [i mod recent_capacity].  Empty until the first record. *)
  mutable ring : record array;
  (* The 16-byte MD5 of each record's rendering, oldest first, in the
     first [16 * folded] bytes.  A record is folded when the ring drops
     it, or by [digest], not when it is written: building Figure 1
     writes 15 records, and hashing them there made the build ~8%
     slower (perfbench [setup_s] on [fig1-wire]). *)
  mutable folded : int;
  mutable partials : Bytes.t;
  (* The rendering of the record being folded into [partials]. *)
  line : Line.t;
  mutable observers : (record -> unit) list;  (* registration order *)
}

let create sim =
  if not (Atomic.get sealed) then Atomic.set sealed true;
  { sim;
    total = 0;
    ring = [||];
    folded = 0;
    partials = Bytes.empty;
    line = Line.create 0;
    observers = [] }

let on_record t f = t.observers <- t.observers @ [ f ]

(* ---- the rendering digested ---- *)

(* Render [r] as "%.9f|category|message\n" and append the 16-byte MD5
   of the rendering to [t.partials] as partial number [t.folded]. *)
let fold t r =
  let line = t.line in
  Line.clear line;
  Line.add_fixed line r.at 9;
  Line.add_char line '|';
  Line.add_string line r.category;
  Line.add_char line '|';
  render_into line r.event;
  Line.add_char line '\n';
  let used = 16 * t.folded in
  if Bytes.length t.partials < used + 16 then begin
    let grown = Bytes.create (max 1024 (2 * Bytes.length t.partials)) in
    Bytes.blit t.partials 0 grown 0 used;
    t.partials <- grown
  end;
  Bytes.blit_string (Line.digest line) 0 t.partials used 16;
  t.folded <- t.folded + 1

(* Fold every record before number [n]; those not yet folded are all
   still in the ring. *)
let fold_upto t n =
  while t.folded < n do
    fold t t.ring.(t.folded mod recent_capacity)
  done

(* ---- recording ---- *)

let rec notify r = function
  | [] -> ()
  | f :: rest ->
    f r;
    notify r rest

let record t ~category event =
  let r = { at = Sim.now t.sim; category; event } in
  if t.total = 0 then t.ring <- Array.make recent_capacity r;
  fold_upto t (t.total + 1 - recent_capacity);
  t.ring.(t.total mod recent_capacity) <- r;
  t.total <- t.total + 1;
  notify r t.observers

(* ---- reading ---- *)

let recent t =
  let n = min t.total recent_capacity in
  List.init n (fun k -> t.ring.((t.total - 1 - k) mod recent_capacity))

let count t = t.total

let digest t =
  fold_upto t t.total;
  Digest.to_hex (Digest.subbytes t.partials 0 (16 * t.total))

let pp_record ppf r =
  Format.fprintf ppf "[%a] %-6s %s" Time.pp r.at r.category (message r)
