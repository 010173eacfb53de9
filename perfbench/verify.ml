(* Output verification.  A fingerprint is a list of lines of simulated
   statistics ([Cell.fingerprint]).  The pins file holds the expected
   fingerprint of each workload for the pinned seed, one section per
   workload:

     [fig1-wire]
     a1 host S sent=11000 delivered=0 duplicates=0
     ...

   Blank lines and lines starting with '#' are ignored. *)

let parse_pins text =
  let sections = ref [] and current = ref None in
  let flush () =
    Option.iter (fun (name, lines) -> sections := (name, List.rev lines) :: !sections) !current
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      let n = String.length line in
      if n = 0 || line.[0] = '#' then ()
      else if line.[0] = '[' && line.[n - 1] = ']' then begin
        flush ();
        current := Some (String.sub line 1 (n - 2), [])
      end
      else
        match !current with
        | Some (name, lines) -> current := Some (name, line :: lines)
        | None -> failwith (Printf.sprintf "pins: line outside a section: %s" line))
    (String.split_on_char '\n' text);
  flush ();
  List.rev !sections

let render_pins name lines = String.concat "\n" (("[" ^ name ^ "]") :: lines) ^ "\n"

(* The lines [actual] lacks and the lines it has in excess, compared as
   multisets, so a line reported twice in place of another is caught. *)
let diff ~expected ~actual =
  let rec go e a missing unexpected =
    match (e, a) with
    | [], rest -> (List.rev missing, List.rev_append unexpected rest)
    | rest, [] -> (List.rev_append missing rest, List.rev unexpected)
    | x :: e', y :: a' ->
      let c = compare x y in
      if c = 0 then go e' a' missing unexpected
      else if c < 0 then go e' a (x :: missing) unexpected
      else go e a' missing (y :: unexpected)
  in
  go (List.sort compare expected) (List.sort compare actual) [] []

let check_exact ~expected ~actual =
  if actual = [] then [ "empty fingerprint" ]
  else
    let missing, unexpected = diff ~expected ~actual in
    List.map (fun l -> "expected: " ^ l) missing @ List.map (fun l -> "got:      " ^ l) unexpected

(* What a line reports on: the words before its first [name=value]. *)
let key line =
  let rec take = function
    | w :: rest when not (String.contains w '=') -> w :: take rest
    | _ -> []
  in
  String.concat " " (take (String.split_on_char ' ' line))

(* A timed iteration may report only some of the reference's lines (the
   scale workload's timed runs see only the sums); those it reports
   must match the reference's lines on the same keys exactly. *)
let check_reported ~reference ~actual =
  let keys = List.map key actual in
  check_exact ~expected:(List.filter (fun l -> List.mem (key l) keys) reference) ~actual

(* [Cell.fingerprint]'s lineage drop-count line. *)
let is_drops line =
  match String.split_on_char ' ' line with _ :: "drops" :: _ -> true | _ -> false

let check_violations n = if n = 0 then [] else [ Printf.sprintf "%d invariant violation(s)" n ]
