(* The benchmark's own checks: a fingerprint that differs from the pins
   in any number, or that lacks or adds a line, is rejected, and a real
   Figure-1 run on the pinned seed reproduces its pinned lines. *)

open Perfbench

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

(* Every single-statistic perturbation of [line]: each value after an
   '=' incremented by one. *)
let perturbations line =
  String.split_on_char ' ' line
  |> List.mapi (fun i word ->
         match String.index_opt word '=' with
         | None -> None
         | Some j -> (
           let name = String.sub word 0 (j + 1) in
           match int_of_string_opt (String.sub word (j + 1) (String.length word - j - 1)) with
           | None -> None
           | Some v -> Some (i, name ^ string_of_int (v + 1))))
  |> List.filter_map Fun.id
  |> List.map (fun (i, word) ->
         String.concat " " (List.mapi (fun k w -> if k = i then word else w) (String.split_on_char ' ' line)))

let replace_nth l k x = List.mapi (fun i y -> if i = k then x else y) l

let () =
  let pins = Verify.parse_pins (In_channel.with_open_bin "pins.txt" In_channel.input_all) in
  expect "pins cover the four workloads"
    (List.for_all (fun w -> List.mem_assoc w pins) [ "fig1-wire"; "fig1-lineage"; "scale-waxman-r100"; "explore-pct" ]);
  List.iter
    (fun (name, lines) ->
      expect (name ^ ": pins round-trip")
        (Verify.parse_pins (Verify.render_pins name lines) = [ (name, lines) ]);
      expect (name ^ ": pins accept themselves") (Verify.check_exact ~expected:lines ~actual:lines = []);
      List.iteri
        (fun k line ->
          List.iter
            (fun bad ->
              let actual = replace_nth lines k bad in
              expect (name ^ ": perturbed line rejected: " ^ bad) (Verify.check_exact ~expected:lines ~actual <> []);
              expect (name ^ ": perturbed line rejected on its own: " ^ bad)
                (Verify.check_reported ~reference:lines ~actual:[ bad ] <> []))
            (perturbations line);
          expect (name ^ ": dropped line rejected")
            (Verify.check_exact ~expected:lines ~actual:(List.filteri (fun i _ -> i <> k) lines) <> []);
          expect (name ^ ": line reported twice in place of another rejected")
            (Verify.check_exact ~expected:lines
               ~actual:(replace_nth lines k (List.nth lines ((k + 1) mod List.length lines)))
             <> []
            || List.length lines = 1))
        lines;
      expect (name ^ ": empty fingerprint rejected") (Verify.check_reported ~reference:lines ~actual:[] <> []))
    pins;
  expect "violations rejected" (Verify.check_violations 1 <> [] && Verify.check_violations 0 = []);
  (* One real run: Figure 1 under approach 1 on the pinned seed. *)
  let c =
    Cell.build
      { Cell.monitor = false; lineage = false; capture = false; profile = false }
      (Cell.Fig1 { approach = Mmcast.Approach.local_membership; seed = 42; wire = true })
  in
  Cell.run c;
  let reference = List.assoc "fig1-wire" pins in
  let actual = Cell.fingerprint c in
  expect "a real run reproduces its pinned lines" (Verify.check_reported ~reference ~actual = []);
  List.iteri
    (fun k line ->
      List.iter
        (fun bad ->
          expect ("a real run with a perturbed statistic is rejected: " ^ bad)
            (Verify.check_reported ~reference ~actual:(replace_nth actual k bad) <> []))
        (perturbations line))
    actual;
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
