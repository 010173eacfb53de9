type record = {
  at : Time.t;
  category : string;
  message : string;
}

type t = {
  sim : Sim.t;
  mutable items : record list;  (* newest first *)
  mutable total : int;
  per_category : (string, int ref) Hashtbl.t;
  (* The counter of the category recorded last: runs of one category
     skip the string hash. *)
  mutable last_category : string;
  mutable last_count : int ref;
  (* One buffer formatter reused by every [recordf], built on first use:
     a fresh formatter per record cost more than the rest of recording.
     [formatting] is set while it is in use, so a nested [recordf] (from
     a [%a] printer) formats on its own. *)
  mutable out : (Buffer.t * Format.formatter) option;
  mutable formatting : bool;
  (* Memoized oldest-first view of [items]; invalidated on record/clear
     so repeated [records]/[by_category] calls don't re-reverse. *)
  mutable oldest_first : record list option;
  mutable enabled : bool;
}

(* Physically unique, so no caller's category is taken for it. *)
let no_category = String.make 1 '\000'

let create ?(enabled = true) sim =
  { sim;
    items = [];
    total = 0;
    per_category = Hashtbl.create 8;
    last_category = no_category;
    last_count = ref 0;
    out = None;
    formatting = false;
    oldest_first = None;
    enabled }

let set_enabled t flag = t.enabled <- flag
let enabled t = t.enabled

let record t ~category message =
  if t.enabled then begin
    t.items <- { at = Sim.now t.sim; category; message } :: t.items;
    t.total <- t.total + 1;
    if category != t.last_category then begin
      let n =
        match Hashtbl.find_opt t.per_category category with
        | Some n -> n
        | None ->
          let n = ref 0 in
          Hashtbl.replace t.per_category category n;
          n
      in
      t.last_category <- category;
      t.last_count <- n
    end;
    incr t.last_count;
    t.oldest_first <- None
  end

let recordf t ~category fmt =
  (* Check [enabled] before rendering: [kasprintf] formats eagerly, and
     hot paths (transmit, faults) call this on every packet, so a
     disabled trace must not pay the formatting cost. *)
  if not t.enabled then Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  else if t.formatting then Format.kasprintf (fun message -> record t ~category message) fmt
  else begin
    let buf, ppf =
      match t.out with
      | Some out -> out
      | None ->
        let buf = Buffer.create 128 in
        let out = (buf, Format.formatter_of_buffer buf) in
        t.out <- Some out;
        out
    in
    t.formatting <- true;
    (* Flushing resets the formatter to its initial state, so each
       message renders exactly as on a fresh formatter. *)
    Format.kfprintf
      (fun ppf ->
        Format.pp_print_flush ppf ();
        let message = Buffer.contents buf in
        Buffer.clear buf;
        t.formatting <- false;
        record t ~category message)
      ppf fmt
  end

let records t =
  match t.oldest_first with
  | Some cached -> cached
  | None ->
    let ordered = List.rev t.items in
    t.oldest_first <- Some ordered;
    ordered

let by_category t category =
  List.filter (fun r -> String.equal r.category category) (records t)

let recent t ~n =
  (* [items] is newest first, so the last [n] records are a prefix —
     no reversal of the whole history needed. *)
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | r :: rest -> r :: take (k - 1) rest
  in
  take (max 0 n) t.items

let count ?category t =
  match category with
  | None -> t.total
  | Some c -> (
    match Hashtbl.find_opt t.per_category c with
    | Some n -> !n
    | None -> 0)

let clear t =
  t.items <- [];
  t.total <- 0;
  Hashtbl.reset t.per_category;
  t.last_category <- no_category;
  t.last_count <- ref 0;
  t.oldest_first <- None

let digest t =
  (* Fold newest-first so no reversal is forced; the digest is over a
     canonical rendering (fixed-precision time), so two traces are
     equal iff their digests are. *)
  let ctx = Buffer.create 4096 in
  let partials =
    List.fold_left
      (fun acc r ->
        Buffer.clear ctx;
        Buffer.add_string ctx (Printf.sprintf "%.9f|" r.at);
        Buffer.add_string ctx r.category;
        Buffer.add_char ctx '|';
        Buffer.add_string ctx r.message;
        Buffer.add_char ctx '\n';
        Digest.string (Buffer.contents ctx) :: acc)
      [] t.items
  in
  Digest.to_hex (Digest.string (String.concat "" partials))

let pp_record ppf r =
  Format.fprintf ppf "[%a] %-6s %s" Time.pp r.at r.category r.message

let pp ppf t =
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_record r) (records t)
