module Rng = Engine.Rng

type dfs_state = {
  mutable prefix : int array;  (* forced choices for the next run *)
  mutable log : (int * int) list;  (* (arity, chosen), newest first *)
  mutable exhausted : bool;
  dfs_max_depth : int;
  dfs_max_branch : int;
}

type kind =
  | Dfs of dfs_state
  | Pct of { depth : int }
  | Walk

type t = { s_name : string; s_kind : kind }

let dfs ?(max_depth = 48) ?(max_branch = 4) () =
  { s_name = "dfs";
    s_kind =
      Dfs
        { prefix = [||];
          log = [];
          exhausted = false;
          dfs_max_depth = max_depth;
          dfs_max_branch = max_branch } }

let pct ?(depth = 3) () = { s_name = "pct"; s_kind = Pct { depth } }
let walk () = { s_name = "walk"; s_kind = Walk }

let name t = t.s_name

let of_name = function
  | "dfs" -> Some (dfs ())
  | "pct" -> Some (pct ())
  | "walk" -> Some (walk ())
  | _ -> None

let all_names = [ "dfs"; "pct"; "walk" ]

(* Independent stream per (seed, run index): [derive] does not advance
   the base generator, so run N's stream never depends on how many
   draws run N-1 made. *)
let run_rng ~seed ~run_index = Rng.derive (Rng.create seed) run_index

let next t ~seed ~run_index =
  match t.s_kind with
  | Walk ->
    let rng = run_rng ~seed ~run_index in
    Some (fun ~kind:_ ~arity -> Rng.int rng arity)
  | Pct { depth } ->
    let rng = run_rng ~seed ~run_index in
    (* Priorities over alternative indices (not events): alternative i
       of any choice point ranks [prio.(min i 63)].  Change points
       reshuffle mid-run, which is what lets a depth-d PCT schedule hit
       bugs needing d ordering constraints. *)
    let prio = Array.init 64 Fun.id in
    Rng.shuffle rng prio;
    let changes =
      Array.init (max 0 (depth - 1)) (fun _ -> Rng.int rng 2048)
    in
    Array.sort compare changes;
    (* [changes.(next)] is the first change point not yet passed;
       equal points reshuffle once. *)
    let pos = ref 0 and next = ref 0 in
    Some
      (fun ~kind:_ ~arity ->
        if !next < Array.length changes && changes.(!next) = !pos then begin
          Rng.shuffle rng prio;
          while !next < Array.length changes && changes.(!next) = !pos do
            incr next
          done
        end;
        incr pos;
        let best = ref 0 in
        for i = 1 to arity - 1 do
          if prio.(min i 63) < prio.(min !best 63) then best := i
        done;
        !best)
  | Dfs st ->
    if st.exhausted then None
    else begin
      st.log <- [];
      let pos = ref 0 in
      Some
        (fun ~kind:_ ~arity ->
          let p = !pos in
          incr pos;
          let c =
            if p < Array.length st.prefix then min st.prefix.(p) (arity - 1)
            else 0
          in
          st.log <- (arity, c) :: st.log;
          c)
    end

let note_result t ~distinct =
  match t.s_kind with
  | Walk | Pct _ -> ()
  | Dfs st ->
    (* Backtrack: advance the deepest position (within bounds) that
       still has an untried alternative; everything shallower keeps its
       realized choice, everything deeper resets to canonical.  A run
       that only revisited an already-seen trace digest is not worth
       deepening — backtrack within the forced prefix instead. *)
    let log = Array.of_list (List.rev st.log) in
    let limit = min (Array.length log) st.dfs_max_depth in
    let limit = if distinct then limit else min limit (Array.length st.prefix) in
    let rec back p =
      if p < 0 then st.exhausted <- true
      else begin
        let arity, chosen = log.(p) in
        if chosen + 1 < min arity st.dfs_max_branch then begin
          let np = Array.init (p + 1) (fun i -> snd log.(i)) in
          np.(p) <- chosen + 1;
          st.prefix <- np
        end
        else back (p - 1)
      end
    in
    back (limit - 1)
