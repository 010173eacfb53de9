(* Spans recorded by the benchmark around its own calls into the
   simulator's libraries.  Recording is off except in the traced run;
   while off, [span] costs one branch.  Spans stay in memory until
   [write] dumps them at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;  (** host seconds since recording was enabled *)
  stop : float;
  attrs : (string * string) list;
}

let enabled = ref false
let epoch = ref 0.0
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let last_closed = ref (-1)

let now = Unix.gettimeofday

let set_enabled on =
  if on && !epoch = 0.0 then epoch := now ();
  enabled := on

let push ~parent ~name ~start ~stop attrs =
  let id = !next_id in
  incr next_id;
  recorded := { id; parent; name; start = start -. !epoch; stop = stop -. !epoch; attrs } :: !recorded;
  id

let span name f =
  if not !enabled then f ()
  else begin
    let parent = !current in
    let id = !next_id in
    incr next_id;
    current := id;
    let start = now () in
    let close () =
      current := parent;
      last_closed := id;
      recorded :=
        { id; parent; name; start = start -. !epoch; stop = now () -. !epoch; attrs = [] }
        :: !recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Children known only in aggregate — an engine profile category's
   total seconds inside the run_until span that just closed — are laid
   end to end from the parent's start and marked as aggregates. *)
let aggregate_children children =
  if !enabled then
    match List.find_opt (fun s -> s.id = !last_closed) !recorded with
    | None -> ()
    | Some parent ->
      ignore
        (List.fold_left
           (fun at (name, seconds, attrs) ->
             let start = !epoch +. at in
             ignore
               (push ~parent:parent.id ~name ~start ~stop:(start +. seconds)
                  (("aggregate", "true") :: attrs));
             at +. seconds)
           parent.start children)

let spans () = List.rev !recorded

let total name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.stop -. s.start) else acc)
    0.0 !recorded

let write path =
  let json s =
    Obs.Json.Obj
      [ ("id", Obs.Json.Int s.id);
        ("parent", Obs.Json.Int s.parent);
        ("name", Obs.Json.String s.name);
        ("start", Obs.Json.float s.start);
        ("end", Obs.Json.float s.stop);
        ("attrs", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.String v)) s.attrs)) ]
  in
  Obs.Json.write_file ~path (Obs.Json.List (List.map json (spans ())))
