(* Unit and property tests for the simulation engine. *)

open Engine

let time_tests =
  [ Alcotest.test_case "arithmetic" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "add" 3.5 (Time.add 1.5 2.0);
        Alcotest.(check (float 1e-9)) "sub" 1.0 (Time.sub 3.0 2.0);
        Alcotest.(check (float 1e-9)) "ms" 0.25 (Time.of_milliseconds 250.0);
        Alcotest.(check (float 1e-9)) "to ms" 1500.0 (Time.milliseconds 1.5));
    Alcotest.test_case "pretty printing" `Quick (fun () ->
        Alcotest.(check string) "ms" "350.0ms" (Time.to_string 0.35);
        Alcotest.(check string) "s" "12.500s" (Time.to_string 12.5);
        Alcotest.(check string) "min" "4m20.0s" (Time.to_string 260.0));
    Alcotest.test_case "add inlines into its caller: no box per call" `Quick (fun () ->
        (* The workspace builds without dune's [-opaque] (dune-workspace),
           so [Time.add] inlines here and the sum stays an unboxed local.
           Under [-opaque] every call is a real call: boxed argument,
           boxed result, 4 words. *)
        let n = 100_000 in
        let acc = ref 0.0 in
        let before = Gc.minor_words () in
        for _ = 1 to n do
          acc := Time.add !acc 0.5
        done;
        let words = Gc.minor_words () -. before in
        Alcotest.(check (float 0.0)) "sum" (0.5 *. float_of_int n) !acc;
        if words > 0.0 then
          Alcotest.failf "%.0f minor words for %d Time.add calls (%.2f a call)" words n
            (words /. float_of_int n))
  ]

let event_queue_tests =
  [ Alcotest.test_case "orders by time" `Quick (fun () ->
        let q = Event_queue.create () in
        ignore (Event_queue.push q 3.0 "c");
        ignore (Event_queue.push q 1.0 "a");
        ignore (Event_queue.push q 2.0 "b");
        let popped = List.init 3 (fun _ -> Option.get (Event_queue.pop q)) in
        Alcotest.(check (list (pair (float 1e-9) string)))
          "sorted" [ (1.0, "a"); (2.0, "b"); (3.0, "c") ] popped);
    Alcotest.test_case "fifo at equal time" `Quick (fun () ->
        let q = Event_queue.create () in
        ignore (Event_queue.push q 1.0 "first");
        ignore (Event_queue.push q 1.0 "second");
        ignore (Event_queue.push q 1.0 "third");
        let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
        Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] order);
    Alcotest.test_case "cancel removes event" `Quick (fun () ->
        let q = Event_queue.create () in
        let h = Event_queue.push q 1.0 "dead" in
        ignore (Event_queue.push q 2.0 "alive");
        Event_queue.cancel q h;
        Alcotest.(check int) "size after cancel" 1 (Event_queue.size q);
        Alcotest.(check (option (pair (float 1e-9) string)))
          "skips cancelled" (Some (2.0, "alive")) (Event_queue.pop q));
    Alcotest.test_case "cancel after pop is harmless" `Quick (fun () ->
        let q = Event_queue.create () in
        let h = Event_queue.push q 1.0 "x" in
        ignore (Event_queue.pop q);
        Event_queue.cancel q h;
        Event_queue.cancel q h;
        Alcotest.(check int) "still empty" 0 (Event_queue.size q);
        ignore (Event_queue.push q 2.0 "y");
        Alcotest.(check int) "new push counted" 1 (Event_queue.size q));
    Alcotest.test_case "peek_time" `Quick (fun () ->
        let q = Event_queue.create () in
        Alcotest.(check (option (float 1e-9))) "empty" None (Event_queue.peek_time q);
        let h = Event_queue.push q 5.0 "x" in
        ignore (Event_queue.push q 7.0 "y");
        Alcotest.(check (option (float 1e-9))) "min" (Some 5.0) (Event_queue.peek_time q);
        Event_queue.cancel q h;
        Alcotest.(check (option (float 1e-9)))
          "min after cancel" (Some 7.0) (Event_queue.peek_time q))
  ]

let event_queue_properties =
  let sorted_pop_matches_sort =
    QCheck.Test.make ~name:"pop sequence is sorted by time then insertion"
      ~count:200
      QCheck.(list (float_bound_inclusive 1000.0))
      (fun times ->
        let q = Event_queue.create () in
        List.iteri (fun i t -> ignore (Event_queue.push q t i)) times;
        let rec drain acc =
          match Event_queue.pop q with
          | None -> List.rev acc
          | Some (t, i) -> drain ((t, i) :: acc)
        in
        let popped = drain [] in
        let expected =
          List.mapi (fun i t -> (t, i)) times
          |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
        in
        popped = expected)
  in
  let cancel_any_subset =
    QCheck.Test.make ~name:"cancelled events never surface" ~count:200
      QCheck.(list (pair (float_bound_inclusive 100.0) bool))
      (fun entries ->
        let q = Event_queue.create () in
        let handles =
          List.map (fun (t, cancel_it) -> (Event_queue.push q t cancel_it, cancel_it)) entries
        in
        List.iter (fun (h, cancel_it) -> if cancel_it then Event_queue.cancel q h) handles;
        let rec drain acc =
          match Event_queue.pop q with
          | None -> acc
          | Some (_, was_marked) -> drain (was_marked :: acc)
        in
        List.for_all not (drain []))
  in
  let interleavings_match_model =
    (* Arbitrary interleavings of push / cancel / pop, checked against a
       reference model: pops must come out in (time, insertion) order
       and never yield a cancelled entry, no matter when the cancel
       lands relative to other operations. *)
    QCheck.Test.make ~name:"push/cancel/pop interleavings match reference model"
      ~count:300
      QCheck.(list (triple (int_range 0 3) (int_range 0 20) (int_range 0 15)))
      (fun ops ->
        let q = Event_queue.create () in
        let next_id = ref 0 in
        (* Live model entries: (time, id, handle), unsorted. *)
        let live = ref [] in
        let ok = ref true in
        List.iter
          (fun (tag, t_raw, pick) ->
            match tag with
            | 0 | 1 ->
              (* push (biased to half the operations) *)
              let time = float_of_int t_raw in
              let id = !next_id in
              incr next_id;
              let h = Event_queue.push q time id in
              live := (time, id, h) :: !live
            | 2 -> (
              (* cancel an arbitrary live entry *)
              match !live with
              | [] -> ()
              | entries ->
                let (_, _, h) as victim = List.nth entries (pick mod List.length entries) in
                Event_queue.cancel q h;
                live := List.filter (fun e -> e != victim) entries)
            | _ -> (
              (* pop: the model's minimum by (time, insertion id) *)
              let expected =
                List.fold_left
                  (fun acc ((t, id, _) as e) ->
                    match acc with
                    | None -> Some e
                    | Some (bt, bid, _) when t < bt || (t = bt && id < bid) -> Some e
                    | Some _ -> acc)
                  None !live
              in
              match (Event_queue.pop q, expected) with
              | None, None -> ()
              | Some (t, id), Some (et, eid, _) when t = et && id = eid ->
                live := List.filter (fun (_, i, _) -> i <> id) !live
              | _ -> ok := false))
          ops;
        !ok && Event_queue.size q = List.length !live)
  in
  List.map QCheck_alcotest.to_alcotest
    [ sorted_pop_matches_sort; cancel_any_subset; interleavings_match_model ]

(* The wheel's pop and peek in [Event_queue]'s option shape, for the
   wheel-vs-heap comparisons. *)
let wheel_peek w = if Wheel.is_empty w then None else Some (Wheel.front_time w)

let wheel_pop w =
  if Wheel.is_empty w then None
  else
    let time = Wheel.front_time w in
    Some (time, Wheel.take w)

(* [Wheel.pop_choice] asked for tie [k], with the arity it offered: 0
   on an empty wheel, 1 when it took a lone front without asking. *)
let wheel_pop_choice w k =
  if Wheel.is_empty w then (0, None)
  else begin
    let time = Wheel.front_time w in
    let arity = ref 1 in
    let x =
      Wheel.pop_choice w (fun n ->
          arity := n;
          min k (n - 1))
    in
    (!arity, Some (time, x))
  end

(* A wheel and its heap oracle fed the same operations, with the live
   ids in a dense pool for uniform random picks.  [ok] turns false at
   the first disagreement. *)
module Twin = struct
  type t = {
    w : int Wheel.t;
    q : int Event_queue.t;
    mutable ok : bool;
    mutable now : float;  (* time of the last pop *)
    mutable next_id : int;
    mutable ids : int array;  (* the live ids are [ids.(0) .. ids.(n - 1)] *)
    mutable n : int;
    pos : (int, int) Hashtbl.t;  (* index of a live id in [ids] *)
    info : (int, float * int Wheel.handle * Event_queue.handle) Hashtbl.t;
  }

  let create () =
    { w = Wheel.create ();
      q = Event_queue.create ();
      ok = true;
      now = 0.0;
      next_id = 0;
      ids = Array.make 1024 0;
      n = 0;
      pos = Hashtbl.create 1024;
      info = Hashtbl.create 1024 }

  let add m id v =
    if m.n = Array.length m.ids then m.ids <- Array.append m.ids m.ids;
    m.ids.(m.n) <- id;
    Hashtbl.replace m.pos id m.n;
    m.n <- m.n + 1;
    Hashtbl.replace m.info id v

  let remove m id =
    let i = Hashtbl.find m.pos id in
    m.n <- m.n - 1;
    let last = m.ids.(m.n) in
    m.ids.(i) <- last;
    Hashtbl.replace m.pos last i;
    Hashtbl.remove m.pos id;
    Hashtbl.remove m.info id

  let push m time =
    let id = m.next_id in
    m.next_id <- id + 1;
    add m id (time, Wheel.push m.w time id, Event_queue.push m.q time id)

  let popped m = function
    | None, None -> ()
    | Some (wt, wid), Some (qt, qid) when wt = qt && wid = qid ->
      m.now <- wt;
      remove m wid
    | _ -> m.ok <- false

  let pop m =
    if wheel_peek m.w <> Event_queue.peek_time m.q then m.ok <- false;
    popped m (wheel_pop m.w, Event_queue.pop m.q)

  (* [choose n] picks one of the heap's [n] front ties; the wheel must
     offer the same [n]. *)
  let pop_choice m choose =
    let n = Event_queue.front_count m.q in
    let k = if n > 0 then choose n else 0 in
    let wn, wr = wheel_pop_choice m.w k in
    if wn <> n then m.ok <- false;
    popped m (wr, Event_queue.pop_kth m.q k)

  (* [int n] draws the victim's index among the [n] live ids. *)
  let cancel m int =
    if m.n > 0 then begin
      let id = m.ids.(int m.n) in
      let _, wh, qh = Hashtbl.find m.info id in
      Wheel.cancel m.w wh;
      Event_queue.cancel m.q qh;
      remove m id
    end

  (* Re-schedule a random live id at [later due]; the heap's oracle is
     cancel + push. *)
  let postpone m int later =
    if m.n > 0 then begin
      let id = m.ids.(int m.n) in
      let due, wh, qh = Hashtbl.find m.info id in
      let time = later due in
      let wh' = Wheel.postpone m.w wh time id in
      if time > due && wh' != wh then m.ok <- false;
      Event_queue.cancel m.q qh;
      Hashtbl.replace m.info id (time, wh', Event_queue.push m.q time id)
    end

  (* Compare the sizes, then drain both; the verdict. *)
  let finish m =
    if Wheel.size m.w <> m.n || Event_queue.size m.q <> m.n then m.ok <- false;
    while m.n > 0 && m.ok do
      pop m
    done;
    popped m (wheel_pop m.w, Event_queue.pop m.q);
    m.ok
end

let wheel_tests =
  let drain w =
    let rec loop acc =
      match wheel_pop w with None -> List.rev acc | Some e -> loop (e :: acc)
    in
    loop []
  in
  [ Alcotest.test_case "orders across wheel levels and overflow" `Quick
      (fun () ->
        (* One deadline per placement tier: L0 (sub-second), L1
           (minutes), L2 (hours), and two in the overflow heap. *)
        let w = Wheel.create () in
        let times = [ 3000.0; 0.5; 300.0; 40000.0; 200000.0 ] in
        List.iteri (fun i t -> ignore (Wheel.push w t i)) times;
        Alcotest.(check (list (pair (float 1e-9) int)))
          "sorted by time"
          [ (0.5, 1); (300.0, 2); (3000.0, 0); (40000.0, 3); (200000.0, 4) ]
          (drain w));
    Alcotest.test_case "equal deadlines pop in push order" `Quick (fun () ->
        let w = Wheel.create () in
        List.iter (fun i -> ignore (Wheel.push w 7.25 i)) [ 0; 1; 2; 3 ];
        Alcotest.(check (list (pair (float 1e-9) int)))
          "fifo" [ (7.25, 0); (7.25, 1); (7.25, 2); (7.25, 3) ] (drain w));
    Alcotest.test_case "cancelled events never surface" `Quick (fun () ->
        let w = Wheel.create () in
        let _a = Wheel.push w 1.0 "a" in
        let b = Wheel.push w 2.0 "b" in
        let _c = Wheel.push w 3.0 "c" in
        Wheel.cancel w b;
        Alcotest.(check bool) "marked" true (Wheel.is_cancelled w b);
        Alcotest.(check int) "size counts live only" 2 (Wheel.size w);
        Alcotest.(check (list (pair (float 1e-9) string)))
          "b skipped" [ (1.0, "a"); (3.0, "c") ] (drain w));
    Alcotest.test_case "postpone moves later in place, earlier by cancel + push" `Quick
      (fun () ->
        let w = Wheel.create () in
        let a = Wheel.push w 1.0 "a" in
        let _b = Wheel.push w 2.0 "b" in
        let a' = Wheel.postpone w a 2.0 "a" in
        Alcotest.(check bool) "later: same handle" true (a' == a);
        let a'' = Wheel.postpone w a' 0.5 "a" in
        Alcotest.(check bool) "earlier: new handle" false (a'' == a');
        Alcotest.(check bool) "old handle cancelled" true (Wheel.is_cancelled w a');
        let a3 = Wheel.postpone w a'' 2.0 "a" in
        Alcotest.(check int) "size" 2 (Wheel.size w);
        (* Re-stamped after "b": the tie at 2.0 goes to "b" first. *)
        Alcotest.(check (list (pair (float 1e-9) string)))
          "cancel + push order" [ (2.0, "b"); (2.0, "a") ] (drain w);
        Alcotest.check_raises "fired handle"
          (Invalid_argument "Wheel.postpone: event is not pending")
          (fun () -> ignore (Wheel.postpone w a3 9.0 "a")));
    Alcotest.test_case "push before the pop floor raises" `Quick (fun () ->
        let w = Wheel.create () in
        ignore (Wheel.push w 10.0 ());
        ignore (Wheel.take w);
        Alcotest.check_raises "past deadline"
          (Invalid_argument "Wheel.push: time precedes the last popped event")
          (fun () -> ignore (Wheel.push w 5.0 ())));
  ]

let wheel_properties =
  let wheel_matches_heap =
    (* The wheel must be observationally identical to the binary heap
       under any schedule/cancel/postpone/pop interleaving the simulator
       can produce (deadlines never precede the last popped time).
       Deltas are scaled to land in every placement tier — L0 slots,
       L1/L2 cascades, and the overflow heap.  The heap has no
       postpone: its oracle is the cancel + push that [Wheel.postpone]
       must be indistinguishable from, in pops and in the front ties
       [pop_choice] offers ([Event_queue.front_count]/[pop_kth]). *)
    QCheck.Test.make ~name:"wheel and heap fire identical sequences" ~count:300
      QCheck.(list (triple (int_range 0 7) (int_range 0 2_000_000) (int_range 0 15)))
      (fun ops ->
        let w = Wheel.create () in
        let q = Event_queue.create () in
        let scales = [| 0.0005; 0.3; 40.0; 3000.0 |] in
        let now = ref 0.0 in
        let next_id = ref 0 in
        (* Live entries: (id, deadline, wheel handle, heap handle). *)
        let live = ref [] in
        let ok = ref true in
        let popped (wt, wid) =
          now := wt;
          live := List.filter (fun (i, _, _, _) -> i <> wid) !live
        in
        List.iter
          (fun (tag, draw, pick) ->
            (* A quarter of the draws are coarse, so same-time ties —
               the explorer's choice points — are common too. *)
            let units = if pick >= 12 then draw mod 3 else draw mod 997 in
            let delta = float_of_int units *. scales.(pick land 3) in
            match tag with
            | 0 | 1 | 2 ->
              let time = !now +. delta in
              let id = !next_id in
              incr next_id;
              let wh = Wheel.push w time id in
              let qh = Event_queue.push q time id in
              live := (id, time, wh, qh) :: !live
            | 3 -> (
              match !live with
              | [] -> ()
              | entries ->
                let ((_, _, wh, qh) as victim) =
                  List.nth entries (pick mod List.length entries)
                in
                Wheel.cancel w wh;
                Event_queue.cancel q qh;
                live := List.filter (fun e -> e != victim) entries)
            | 4 | 5 -> (
              match !live with
              | [] -> ()
              | entries ->
                let ((id, due, wh, qh) as victim) =
                  List.nth entries (pick mod List.length entries)
                in
                (* Mostly later (the in-place move), sometimes equal or
                   earlier (the cancel + push fallback). *)
                let time = if tag = 4 then due +. delta else !now +. delta in
                let wh' = Wheel.postpone w wh time id in
                if time > due && wh' != wh then ok := false;
                Event_queue.cancel q qh;
                let qh' = Event_queue.push q time id in
                live :=
                  (id, time, wh', qh') :: List.filter (fun e -> e != victim) entries)
            | 6 -> (
              let qn = Event_queue.front_count q in
              let k = if qn > 0 then pick mod qn else 0 in
              let wn, wr = wheel_pop_choice w k in
              if wn <> qn then ok := false;
              match (wr, Event_queue.pop_kth q k) with
              | None, None -> ()
              | Some (wt, wid), Some (qt, qid) when wt = qt && wid = qid ->
                popped (wt, wid)
              | _ -> ok := false)
            | _ -> (
              if wheel_peek w <> Event_queue.peek_time q then ok := false;
              match (wheel_pop w, Event_queue.pop q) with
              | None, None -> ()
              | Some (wt, wid), Some (qt, qid) when wt = qt && wid = qid ->
                popped (wt, wid)
              | _ -> ok := false))
          ops;
        (* Drain whatever is left and compare the tails too. *)
        let rec drain () =
          match (wheel_pop w, Event_queue.pop q) with
          | None, None -> ()
          | Some (wt, wid), Some (qt, qid) when wt = qt && wid = qid -> drain ()
          | _ -> ok := false
        in
        if Wheel.size w <> List.length !live then ok := false;
        drain ();
        !ok)
  in
  let wheel_matches_heap_on_floods =
    (* A PIM-DM flood schedules one delivery per downstream router at
       now + link delay, so its deliveries share a quantum and mostly
       arrive in time order.  Bursts of 100-1,000 pushes into one
       quantum — mostly ascending, with stragglers and exact ties —
       interleaved with pops, tie pops, cancels and postpones drive a
       slot's sorted run through growth, compaction and draining beside
       its heap.  Half the bursts go back into the quantum being
       drained and continue from the previous burst's last offset, so
       they append to a run whose head has advanced. *)
    QCheck.Test.make ~name:"wheel and heap agree on flood-shaped bursts" ~count:15
      QCheck.(int_bound 0x3FFFFFFF)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let int n = Random.State.int rng n in
        let m = Twin.create () in
        let push = Twin.push m and pop () = Twin.pop m in
        let pop_tie () = Twin.pop_choice m (fun n -> int n) in
        let cancel () = Twin.cancel m int in
        (* Mostly later (the in-place move), sometimes back to the floor
           (the cancel + push fallback). *)
        let postpone () =
          Twin.postpone m int (fun due ->
              if int 4 > 0 then due +. (float_of_int (1 + int 2048) /. 1048576.0)
              else m.Twin.now +. (float_of_int (int 64) /. 1048576.0))
        in
        (* Offsets are in 2^-20 s, 1,024 to a quantum, so every time is
           exact and equal offsets are exact ties. *)
        let last_quantum = ref (-1) and offset = ref 0 in
        let burst () =
          let here = int_of_float (m.Twin.now *. 1024.0) in
          let quantum =
            if !last_quantum >= here && int 2 = 0 then !last_quantum
            else here + [| 0; 1; 3; 700; 1500 |].(int 5)
          in
          if quantum <> !last_quantum then offset := int 64;
          last_quantum := quantum;
          let base = float_of_int quantum /. 1024.0 in
          let at k = Float.max m.Twin.now (base +. (float_of_int k /. 1048576.0)) in
          for _ = 1 to 100 + int 901 do
            match int 100 with
            | r when r < 7 -> push (at (int (!offset + 1)))  (* a straggler *)
            | r when r < 20 -> push (at !offset)  (* a tie with the tail *)
            | _ ->
              offset := min 1023 (!offset + 1 + int 2);
              push (at !offset)
          done
        in
        for _ = 1 to 3 + int 5 do
          burst ();
          for _ = 1 to int 900 do
            match int 100 with
            | r when r < 60 -> pop ()
            | r when r < 70 -> pop_tie ()
            | r when r < 84 -> cancel ()
            | r when r < 99 -> postpone ()
            | _ -> burst ()
          done
        done;
        Twin.finish m)
  in
  let choice_matches_heap =
    (* [pop_choice] under a random chooser against the heap's
       [front_count]/[pop_kth], on two stream shapes at once: floods of
       pushes into one quantum, and sparse events seconds apart, whose
       pops move the L0 window on past slots they drained, leaving
       stale occupancy bits for the scan to clear.  Times come from six
       anchors, exact multiples of 2^-20 s that pushes and postpones
       re-use, so ties are the norm and land in a slot's run (in
       order), in its heap (behind a later tail) and in the overflow
       (past the ~36 h window, joined by wheel entries at the same time
       once a pop brings the windows near). *)
    QCheck.Test.make ~name:"pop_choice matches pop_kth on floods and sparse streams"
      ~count:40 QCheck.(int_bound 0x3FFFFFFF)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let int n = Random.State.int rng n in
        let m = Twin.create () in
        let tick k = float_of_int k /. 1048576.0 in
        let anchors = Array.make 6 0.0 in
        let reanchor () =
          let from = if int 3 = 0 then anchors.(int 6) else m.Twin.now in
          let gap = [| 0.0; 0.0005; 0.4; 3.0; 7.0; 700.0; 140000.0 |].(int 7) in
          let t = Float.max m.Twin.now (from +. (gap *. (1.0 +. Random.State.float rng 1.0))) in
          anchors.(int 6) <- Float.round (t *. 1048576.0) /. 1048576.0
        in
        let anchor () = Float.max m.Twin.now anchors.(int 6) in
        let burst () =
          let a = anchor () and offset = ref 0 in
          for _ = 1 to 50 + int 250 do
            if int 4 = 0 then offset := !offset + 1 + int 2;
            Twin.push m (a +. tick !offset)
          done
        in
        Array.iteri (fun _ _ -> reanchor ()) anchors;
        for _ = 1 to 2000 do
          match int 100 with
          | r when r < 35 -> Twin.push m (anchor () +. tick (if int 3 = 0 then int 4 else 0))
          | r when r < 38 -> burst ()
          | r when r < 45 -> reanchor ()
          | r when r < 70 -> Twin.pop_choice m (fun n -> int n)
          | r when r < 82 -> Twin.pop m
          | r when r < 91 -> Twin.cancel m int
          | _ ->
            Twin.postpone m int (fun due ->
                let a = anchors.(int 6) in
                if a > due then a
                else if int 4 = 0 then m.Twin.now
                else due +. tick (1 + int 3000))
        done;
        Twin.finish m)
  in
  List.map QCheck_alcotest.to_alcotest
    [ wheel_matches_heap; wheel_matches_heap_on_floods; choice_matches_heap ]

(* Fired and cancelled payloads must be garbage once the wheel is done
   with them: slots clear every cell they vacate and drop a drained
   slot's arrays, and the level arrays share one empty slot until an
   index is first used. *)
let wheel_memory_tests =
  (* [n] payloads at times [base + k / 2^20], mostly ascending with
     every seventh a straggler, and every fifth cancelled.  Only [weak]
     refers to the payloads afterwards; the handles die with this
     call. *)
  let[@inline never] fill w weak ~base ~n =
    for i = 0 to n - 1 do
      let k = if i mod 7 = 6 then i / 2 else i in
      let payload = ref i in
      Weak.set weak i (Some payload);
      let h = Wheel.push w (base +. (float_of_int k /. 1048576.0)) payload in
      if i mod 5 = 4 then Wheel.cancel w h
    done
  in
  let[@inline never] pop_ids w m =
    List.init m (fun _ ->
        match wheel_pop w with Some (_, p) -> !p | None -> Alcotest.fail "wheel ran dry")
  in
  let reachable weak ids =
    Gc.full_major ();
    List.filter (fun i -> Weak.check weak i) ids
  in
  let check_gone what weak ids =
    Alcotest.(check (list int)) (what ^ ": no payload reachable") [] (reachable weak ids)
  in
  let cancelled n = List.filter (fun i -> i mod 5 = 4) (List.init n Fun.id) in
  [ Alcotest.test_case "a drained slot retains no payload" `Quick (fun () ->
        let n = 600 in
        let w = Wheel.create () in
        let weak = Weak.create n in
        fill w weak ~base:0.5 ~n;
        let live = Wheel.size w in
        let first = pop_ids w (live / 2) in
        check_gone "popped half" weak first;
        let rest = pop_ids w (live - (live / 2)) in
        Alcotest.(check bool) "empty" true (Wheel.is_empty w);
        check_gone "drained" weak (first @ rest @ cancelled n));
    Alcotest.test_case "a cascaded L1 slot retains no payload" `Quick (fun () ->
        let n = 400 in
        let w = Wheel.create () in
        let weak = Weak.create n in
        (* Past the first 1 s L0 window: placed in an L1 slot, moved down
           by the cascade the first pop from it triggers. *)
        fill w weak ~base:5.25 ~n;
        let first = pop_ids w 1 in
        check_gone "cascaded" weak (first @ cancelled n);
        ignore (pop_ids w (Wheel.size w));
        Alcotest.(check int) "empty" 0 (Wheel.size w);
        check_gone "drained" weak (List.init n Fun.id));
    Alcotest.test_case "the tie buffers retain no popped entry" `Quick (fun () ->
        (* Eight times with eight ties each, some behind a later tail
           (in the slot's heap); every pop picks the last tie, so the
           buffers fill to eight each time. *)
        let n = 64 in
        let w = Wheel.create () in
        let weak = Weak.create n in
        let[@inline never] fill () =
          for i = 0 to n - 1 do
            let payload = ref i in
            Weak.set weak i (Some payload);
            let slot = if i mod 3 = 2 then (i + 8) mod 8 else i mod 8 in
            ignore (Wheel.push w (1.0 +. (float_of_int slot /. 1048576.0)) payload)
          done
        in
        let[@inline never] pop_last m =
          List.init m (fun _ -> !(Wheel.pop_choice w (fun arity -> arity - 1)))
        in
        fill ();
        let first = pop_last 20 in
        check_gone "mid-drain" weak first;
        let rest = pop_last (n - 20) in
        Alcotest.(check int) "empty" 0 (Wheel.size w);
        check_gone "drained" weak (first @ rest);
        ignore (Sys.opaque_identity w));
    Alcotest.test_case "create allocates no slot records" `Quick (fun () ->
        (* The L0 and L1 arrays are too big for the minor heap; the L2
           array's 257 words, the wheel record, the shared empty slot and
           the overflow slot are ~290 words.  A record per index would
           add 1,792 slot records, over 5,000 words. *)
        let before = Gc.minor_words () in
        let w = Sys.opaque_identity (Wheel.create ()) in
        let words = Gc.minor_words () -. before in
        ignore (Sys.opaque_identity (Wheel.push w 1.0 ()));
        if words > 512.0 then
          Alcotest.failf "Wheel.create allocated %.0f minor words" words)
  ]

(* The same-timestamp ordering contract (pops strictly increasing in
   (time, push seq)) and its sanctioned deviation — the wheel's
   [pop_choice], the heap's [front_count]/[pop_kth] — must agree between
   the two implementations under arbitrary interleavings of pushes,
   cancels and tie-indexed pops. *)
let tie_break_tests =
  let unit_tests =
    [ Alcotest.test_case "front_count counts only live front ties" `Quick
        (fun () ->
          let w = Wheel.create () in
          let q = Event_queue.create () in
          let wh = List.init 5 (fun i -> Wheel.push w 7.25 i) in
          let qh = List.init 5 (fun i -> Event_queue.push q 7.25 i) in
          ignore (Wheel.push w 9.0 99);
          ignore (Event_queue.push q 9.0 99);
          Wheel.cancel w (List.nth wh 2);
          Event_queue.cancel q (List.nth qh 2);
          Alcotest.(check int) "wheel" 4 (fst (wheel_pop_choice w 0));
          Alcotest.(check int) "heap" 4 (Event_queue.front_count q));
      Alcotest.test_case "pop_kth picks the k-th tie by push order" `Quick
        (fun () ->
          let w = Wheel.create () in
          let q = Event_queue.create () in
          let wh = List.init 5 (fun i -> Wheel.push w 7.25 i) in
          let qh = List.init 5 (fun i -> Event_queue.push q 7.25 i) in
          Wheel.cancel w (List.nth wh 2);
          Event_queue.cancel q (List.nth qh 2);
          (* Live ties by push order: 0, 1, 3, 4 — the 2nd is id 3. *)
          Alcotest.(check (pair int (option (pair (float 1e-9) int))))
            "wheel kth" (4, Some (7.25, 3)) (wheel_pop_choice w 2);
          Alcotest.(check (option (pair (float 1e-9) int)))
            "heap kth" (Some (7.25, 3)) (Event_queue.pop_kth q 2);
          (* Remaining ties 0, 1, 4 keep popping in push order. *)
          Alcotest.(check (list (pair (float 1e-9) int)))
            "wheel rest"
            [ (7.25, 0); (7.25, 1); (7.25, 4) ]
            (List.filter_map (fun _ -> wheel_pop w) [ (); (); () ]);
          Alcotest.(check (list (pair (float 1e-9) int)))
            "heap rest"
            [ (7.25, 0); (7.25, 1); (7.25, 4) ]
            (List.filter_map (fun _ -> Event_queue.pop q) [ (); (); () ]));
      Alcotest.test_case "pop_kth 0 is pop; out-of-range raises" `Quick
        (fun () ->
          let w = Wheel.create () in
          let q = Event_queue.create () in
          Alcotest.check_raises "empty wheel"
            (Invalid_argument "Wheel.pop_choice: empty wheel") (fun () ->
              ignore (Wheel.pop_choice w (fun _ -> 0)));
          Alcotest.(check (option (pair (float 1e-9) int)))
            "empty heap" None (Event_queue.pop_kth q 0);
          ignore (Wheel.push w 3.0 1);
          ignore (Wheel.push w 3.0 2);
          ignore (Event_queue.push q 3.0 1);
          ignore (Event_queue.push q 3.0 2);
          Alcotest.(check (pair int (option (pair (float 1e-9) int))))
            "wheel k=0 = pop" (2, Some (3.0, 1)) (wheel_pop_choice w 0);
          Alcotest.(check (option (pair (float 1e-9) int)))
            "heap k=0 = pop" (Some (3.0, 1)) (Event_queue.pop_kth q 0);
          ignore (Wheel.push w 3.0 3);
          (try
             ignore (Wheel.pop_choice w (fun _ -> 5));
             Alcotest.fail "wheel accepted out-of-range k"
           with Invalid_argument _ -> ());
          (* A lone front is taken without asking. *)
          ignore (Wheel.take w);
          Alcotest.(check int) "lone front" 3
            (Wheel.pop_choice w (fun _ -> Alcotest.fail "chooser called on a lone front"));
          try
            ignore (Event_queue.pop_kth q 5);
            Alcotest.fail "heap accepted out-of-range k"
          with Invalid_argument _ -> ());
      Alcotest.test_case "a postponed tie leaves the front" `Quick (fun () ->
          (* Ids 0-2 tie at 7.25; id 1 moves to 9.0 but stays placed at
             7.25 until it surfaces, and must not count as a tie. *)
          let w = Wheel.create () in
          let q = Event_queue.create () in
          let wh = List.init 3 (fun i -> Wheel.push w 7.25 i) in
          let qh = List.init 3 (fun i -> Event_queue.push q 7.25 i) in
          ignore (Wheel.postpone w (List.nth wh 1) 9.0 1);
          Event_queue.cancel q (List.nth qh 1);
          ignore (Event_queue.push q 9.0 1);
          Alcotest.(check int) "heap" 2 (Event_queue.front_count q);
          Alcotest.(check (pair int (option (pair (float 1e-9) int))))
            "wheel kth" (2, Some (7.25, 2)) (wheel_pop_choice w 1);
          Alcotest.(check (option (pair (float 1e-9) int)))
            "heap kth" (Some (7.25, 2)) (Event_queue.pop_kth q 1);
          Alcotest.(check (list (pair (float 1e-9) int)))
            "wheel rest" [ (7.25, 0); (9.0, 1) ]
            (List.filter_map (fun _ -> wheel_pop w) [ (); (); () ]);
          Alcotest.(check (list (pair (float 1e-9) int)))
            "heap rest" [ (7.25, 0); (9.0, 1) ]
            (List.filter_map (fun _ -> Event_queue.pop q) [ (); (); () ]))
    ]
  in
  let agree =
    QCheck.Test.make
      ~name:"wheel and heap agree under pop_kth tie-breaks" ~count:300
      QCheck.(list (triple (int_range 0 5) (int_range 0 2_000_000) (int_range 0 15)))
      (fun ops ->
        let w = Wheel.create () in
        let q = Event_queue.create () in
        (* Coarse deltas so same-time collisions are the norm, spread
           across placement tiers (L0, L1/L2 cascades, overflow). *)
        let scales = [| 0.25; 40.0; 3000.0; 0.0 |] in
        let now = ref 0.0 in
        let next_id = ref 0 in
        let live = ref [] in
        let ok = ref true in
        List.iter
          (fun (tag, draw, pick) ->
            match tag with
            | 0 | 1 | 2 ->
              let time =
                !now +. (float_of_int (draw mod 7) *. scales.(pick land 3))
              in
              let id = !next_id in
              incr next_id;
              let wh = Wheel.push w time id in
              let qh = Event_queue.push q time id in
              live := (id, wh, qh) :: !live
            | 3 -> (
              match !live with
              | [] -> ()
              | entries ->
                let ((_, wh, qh) as victim) =
                  List.nth entries (pick mod List.length entries)
                in
                Wheel.cancel w wh;
                Event_queue.cancel q qh;
                live := List.filter (fun e -> e != victim) entries)
            | _ -> (
              let qn = Event_queue.front_count q in
              let k = if qn > 0 then pick mod qn else 0 in
              let wn, wr = wheel_pop_choice w k in
              if wn <> qn then ok := false;
              match (wr, Event_queue.pop_kth q k) with
              | None, None -> ()
              | Some (wt, wid), Some (qt, qid) when wt = qt && wid = qid ->
                now := wt;
                live := List.filter (fun (i, _, _) -> i <> wid) !live
              | _ -> ok := false))
          ops;
        if Wheel.size w <> List.length !live then ok := false;
        (* Drain canonically and compare the tails. *)
        let rec drain () =
          match (wheel_pop w, Event_queue.pop q) with
          | None, None -> ()
          | Some (wt, wid), Some (qt, qid) when wt = qt && wid = qid -> drain ()
          | _ -> ok := false
        in
        drain ();
        !ok)
  in
  unit_tests @ List.map QCheck_alcotest.to_alcotest [ agree ]

let sim_tests =
  [ Alcotest.test_case "clock advances to event times" `Quick (fun () ->
        let sim = Sim.create () in
        let seen = ref [] in
        ignore (Sim.schedule_at sim 2.0 (fun () -> seen := (Sim.now sim, "b") :: !seen));
        ignore (Sim.schedule_at sim 1.0 (fun () -> seen := (Sim.now sim, "a") :: !seen));
        Sim.run sim;
        Alcotest.(check (list (pair (float 1e-9) string)))
          "order and clock" [ (1.0, "a"); (2.0, "b") ] (List.rev !seen));
    Alcotest.test_case "schedule_after is relative" `Quick (fun () ->
        let sim = Sim.create () in
        let fired_at = ref (-1.0) in
        ignore
          (Sim.schedule_at sim 10.0 (fun () ->
               ignore (Sim.schedule_after sim 5.0 (fun () -> fired_at := Sim.now sim))));
        Sim.run sim;
        Alcotest.(check (float 1e-9)) "10 + 5" 15.0 !fired_at);
    Alcotest.test_case "schedule in the past rejected" `Quick (fun () ->
        let sim = Sim.create () in
        ignore (Sim.schedule_at sim 10.0 (fun () -> ()));
        Sim.run sim;
        Alcotest.check_raises "past" (Invalid_argument
          "Sim.schedule_at: 5 is in the past (now 10)")
          (fun () -> ignore (Sim.schedule_at sim 5.0 (fun () -> ()))));
    Alcotest.test_case "run ~until stops and advances clock" `Quick (fun () ->
        let sim = Sim.create () in
        let count = ref 0 in
        ignore (Sim.schedule_at sim 1.0 (fun () -> incr count));
        ignore (Sim.schedule_at sim 100.0 (fun () -> incr count));
        Sim.run ~until:50.0 sim;
        Alcotest.(check int) "only first fired" 1 !count;
        Alcotest.(check (float 1e-9)) "clock at bound" 50.0 (Sim.now sim);
        Sim.run sim;
        Alcotest.(check int) "second fires later" 2 !count);
    Alcotest.test_case "run ~until before now leaves the clock alone" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref [] in
        List.iter
          (fun at -> ignore (Sim.schedule_at sim at (fun () -> fired := at :: !fired)))
          [ 5.0; 10.0 ];
        Sim.run ~until:6.0 sim;
        Sim.run ~until:2.0 sim;
        Alcotest.(check (float 0.0)) "now" 6.0 (Sim.now sim);
        Alcotest.(check (list (float 0.0))) "fired" [ 5.0 ] !fired;
        Alcotest.check_raises "3 s is in the past"
          (Invalid_argument "Sim.schedule_at: 3 is in the past (now 6)") (fun () ->
            ignore (Sim.schedule_at sim 3.0 ignore));
        Sim.run sim;
        Alcotest.(check (list (float 0.0))) "then 10 s" [ 10.0; 5.0 ] !fired);
    Alcotest.test_case "dispatch allocates nothing per event" `Quick (fun () ->
        (* 100k events in groups of four ties, all inside the first 1 s
           window: placement (push, and the cascade a later window
           needs) grows slot arrays, and is not what is measured here.
           The dispatch loop is: it reads the front time and takes the
           payload without an option, and a decider's chooser is built
           once, when it is installed. *)
        let n = 100_000 in
        let minor_words decider =
          let sim = Sim.create () in
          let count = ref 0 in
          let f () = incr count in
          for i = 0 to n - 1 do
            ignore (Sim.schedule_at sim (float_of_int (i / 4) /. float_of_int n) f)
          done;
          Sim.set_decider sim decider;
          let before = Gc.minor_words () in
          Sim.run sim;
          let words = Gc.minor_words () -. before in
          Alcotest.(check int) "every event ran" n !count;
          words
        in
        (* Totals over all 100k events: the reading itself may cost a
           boxed float, and the tie buffers grow once, to four. *)
        let plain = minor_words None in
        if plain > 16.0 then
          Alcotest.failf "%.0f minor words for %d events without a decider" plain n;
        let chosen = minor_words (Some (fun ~kind:_ ~arity -> arity - 1)) in
        if chosen > 256.0 then
          Alcotest.failf "%.0f minor words for %d events with a constant decider" chosen n);
    Alcotest.test_case "run ~until with empty queue advances clock" `Quick (fun () ->
        let sim = Sim.create () in
        Sim.run ~until:30.0 sim;
        Alcotest.(check (float 1e-9)) "clock" 30.0 (Sim.now sim));
    Alcotest.test_case "cancel prevents execution" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref false in
        let h = Sim.schedule_at sim 1.0 (fun () -> fired := true) in
        Sim.cancel sim h;
        Sim.run sim;
        Alcotest.(check bool) "not fired" false !fired);
    Alcotest.test_case "max_events guard" `Quick (fun () ->
        let sim = Sim.create () in
        (* A self-rescheduling event would run forever without the guard. *)
        let rec tick () = ignore (Sim.schedule_after sim 1.0 tick) in
        ignore (Sim.schedule_after sim 1.0 tick);
        Sim.run ~max_events:25 sim;
        Alcotest.(check int) "stopped at budget" 25 (Sim.events_executed sim))
  ]

let timer_tests =
  [ Alcotest.test_case "fires once after duration" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref [] in
        let t = Timer.create sim ~name:"t" ~on_expire:(fun () -> fired := Sim.now sim :: !fired) in
        Timer.start t 5.0;
        Sim.run sim;
        Alcotest.(check (list (float 1e-9))) "once at 5" [ 5.0 ] !fired);
    Alcotest.test_case "restart replaces expiry" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref [] in
        let t = Timer.create sim ~name:"t" ~on_expire:(fun () -> fired := Sim.now sim :: !fired) in
        Timer.start t 5.0;
        ignore (Sim.schedule_at sim 3.0 (fun () -> Timer.start t 5.0));
        Sim.run sim;
        Alcotest.(check (list (float 1e-9))) "only the restarted expiry" [ 8.0 ] !fired);
    Alcotest.test_case "stop disarms" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref false in
        let t = Timer.create sim ~name:"t" ~on_expire:(fun () -> fired := true) in
        Timer.start t 5.0;
        Alcotest.(check bool) "armed" true (Timer.is_armed t);
        Timer.stop t;
        Alcotest.(check bool) "disarmed" false (Timer.is_armed t);
        Sim.run sim;
        Alcotest.(check bool) "never fired" false !fired);
    Alcotest.test_case "remaining and expiry" `Quick (fun () ->
        let sim = Sim.create () in
        let t = Timer.create sim ~name:"t" ~on_expire:(fun () -> ()) in
        Alcotest.(check (option (float 1e-9))) "disarmed remaining" None (Timer.remaining t);
        ignore
          (Sim.schedule_at sim 2.0 (fun () ->
               Timer.start t 10.0));
        ignore
          (Sim.schedule_at sim 7.0 (fun () ->
               Alcotest.(check (option (float 1e-9))) "expiry" (Some 12.0) (Timer.expiry t);
               Alcotest.(check (option (float 1e-9))) "remaining" (Some 5.0) (Timer.remaining t)));
        Sim.run sim);
    Alcotest.test_case "restarted a thousand times, fires once in cancel + push order" `Quick
      (fun () ->
        (* The timer is refreshed every 0.1 s, each refresh pushing its
           deadline 5 s past the refresh, so the last one lands on
           105 s.  Two unrelated events share that instant: one
           scheduled before the last refresh, one after.  A restart is
           a cancel + push, so the timer fires between them.  The same
           script with an explicit cancel + schedule_at is the
           oracle. *)
        let script ~restart ~expire_with =
          let sim = Sim.create () in
          let log = ref [] in
          let note what () = log := (Sim.now sim, what) :: !log in
          let refresh = restart sim (note "timer") in
          ignore (Sim.schedule_at sim 105.0 (note "before"));
          for i = 1 to 1000 do
            let at = float_of_int i /. 10.0 in
            ignore
              (Sim.schedule_at sim at (fun () ->
                   refresh ();
                   if i = 1000 then ignore (Sim.schedule_at sim 105.0 (note "after"))))
          done;
          expire_with sim;
          (List.rev !log, Sim.events_executed sim, Sim.pending sim)
        in
        let with_timer =
          script
            ~restart:(fun sim on_expire ->
              let t = Timer.create sim ~name:"t" ~on_expire in
              Timer.start t 5.0;
              fun () -> Timer.start t 5.0)
            ~expire_with:Sim.run
        in
        let with_cancel_push =
          script
            ~restart:(fun sim on_expire ->
              let h = ref (Sim.schedule_after sim 5.0 on_expire) in
              fun () ->
                Sim.cancel sim !h;
                h := Sim.schedule_after sim 5.0 on_expire)
            ~expire_with:Sim.run
        in
        let log, events, pending = with_timer in
        Alcotest.(check (list (pair (float 1e-9) string)))
          "fires once, between the ties"
          [ (105.0, "before"); (105.0, "timer"); (105.0, "after") ]
          log;
        Alcotest.(check int) "events: refreshes + 3" 1003 events;
        Alcotest.(check int) "nothing left" 0 pending;
        Alcotest.(check bool) "same as cancel + push" true (with_timer = with_cancel_push));
    Alcotest.test_case "restart from inside callback" `Quick (fun () ->
        let sim = Sim.create () in
        let count = ref 0 in
        let t = ref None in
        let timer =
          Timer.create sim ~name:"periodic" ~on_expire:(fun () ->
              incr count;
              if !count < 3 then Timer.start (Option.get !t) 2.0)
        in
        t := Some timer;
        Timer.start timer 2.0;
        Sim.run sim;
        Alcotest.(check int) "three firings" 3 !count;
        Alcotest.(check (float 1e-9)) "ends at 6" 6.0 (Sim.now sim));
    Alcotest.test_case "a restart allocates one box, shared with the wheel" `Quick (fun () ->
        (* Each restart moves the deadline later, so the wheel entry is
           moved in place and the timer's own expiry box is all that is
           new.  The durations are boxed up front, in tuples. *)
        let sim = Sim.create () in
        let t = Timer.create sim ~name:"t" ~on_expire:ignore in
        let n = 100_000 in
        let durations = Array.init n (fun i -> (float_of_int (i + 1), ())) in
        Timer.start t 0.5;
        let before = Gc.minor_words () in
        Array.iter (fun (d, ()) -> Timer.start t d) durations;
        let words = Gc.minor_words () -. before in
        Alcotest.(check (option (float 0.0))) "expiry" (Some (float_of_int n)) (Timer.expiry t);
        if words > (2.0 *. float_of_int n) +. 64.0 then
          Alcotest.failf "%.0f minor words for %d restarts (%.2f a restart)" words n
            (words /. float_of_int n))
  ]

let rng_tests =
  [ Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        let sa = List.init 32 (fun _ -> Rng.bits64 a) in
        let sb = List.init 32 (fun _ -> Rng.bits64 b) in
        Alcotest.(check bool) "identical streams" true (sa = sb));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        Alcotest.(check bool) "diverge" false
          (List.init 8 (fun _ -> Rng.bits64 a) = List.init 8 (fun _ -> Rng.bits64 b)));
    Alcotest.test_case "split yields independent stream" `Quick (fun () ->
        let a = Rng.create 7 in
        let child = Rng.split a in
        Alcotest.(check bool) "diverge" false
          (List.init 8 (fun _ -> Rng.bits64 a) = List.init 8 (fun _ -> Rng.bits64 child)));
    Alcotest.test_case "copy preserves state" `Quick (fun () ->
        let a = Rng.create 3 in
        ignore (Rng.bits64 a);
        let b = Rng.copy a in
        Alcotest.(check bool) "same continuation" true
          (List.init 8 (fun _ -> Rng.bits64 a) = List.init 8 (fun _ -> Rng.bits64 b)))
  ]

let rng_properties =
  let int_in_bounds =
    QCheck.Test.make ~name:"int stays within bound" ~count:500
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        List.for_all
          (fun _ ->
            let v = Rng.int rng bound in
            v >= 0 && v < bound)
          (List.init 50 Fun.id))
  in
  let float_in_bounds =
    QCheck.Test.make ~name:"float stays within bound" ~count:500
      QCheck.(pair small_int (float_bound_inclusive 1000.0))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        List.for_all
          (fun _ ->
            let v = Rng.float rng bound in
            v >= 0.0 && (bound = 0.0 || v < bound))
          (List.init 50 Fun.id))
  in
  let exponential_positive =
    QCheck.Test.make ~name:"exponential draws are positive" ~count:200
      QCheck.(pair small_int (float_range 0.001 100.0))
      (fun (seed, mean) ->
        let rng = Rng.create seed in
        List.for_all (fun _ -> Rng.exponential rng mean > 0.0) (List.init 20 Fun.id))
  in
  let shuffle_is_permutation =
    QCheck.Test.make ~name:"shuffle permutes" ~count:200
      QCheck.(pair small_int (list small_int))
      (fun (seed, items) ->
        let rng = Rng.create seed in
        let arr = Array.of_list items in
        Rng.shuffle rng arr;
        List.sort compare (Array.to_list arr) = List.sort compare items)
  in
  List.map QCheck_alcotest.to_alcotest
    [ int_in_bounds; float_in_bounds; exponential_positive; shuffle_is_permutation ]

let stats_tests =
  [ Alcotest.test_case "summary statistics" `Quick (fun () ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
        Alcotest.(check int) "count" 8 (Stats.Summary.count s);
        Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
        Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.Summary.stddev s);
        Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
        Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s);
        Alcotest.(check (float 1e-9)) "median" 4.0 (Stats.Summary.percentile s 0.5));
    Alcotest.test_case "summary empty" `Quick (fun () ->
        let s = Stats.Summary.create () in
        Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Stats.Summary.mean s);
        Alcotest.check_raises "min of empty" (Invalid_argument "Summary.min: empty")
          (fun () -> ignore (Stats.Summary.min s)))
  ]

let stats_extra_tests =
  [ Alcotest.test_case "summary percentiles across the range" `Quick (fun () ->
        let s = Stats.Summary.create () in
        for i = 1 to 100 do
          Stats.Summary.add s (float_of_int i)
        done;
        Alcotest.(check (float 1e-9)) "p01" 1.0 (Stats.Summary.percentile s 0.01);
        Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.Summary.percentile s 0.5);
        Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.Summary.percentile s 0.99);
        Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Summary.percentile s 1.0));
    Alcotest.test_case "summary pp and samples" `Quick (fun () ->
        let s = Stats.Summary.create ~name:"lat" () in
        List.iter (Stats.Summary.add s) [ 3.0; 1.0; 2.0 ];
        Alcotest.(check (list (float 1e-9))) "insertion order" [ 3.0; 1.0; 2.0 ]
          (Stats.Summary.samples s);
        let text = Format.asprintf "%a" Stats.Summary.pp s in
        Alcotest.(check bool) "mentions name" true
          (String.length text >= 3 && String.sub text 0 3 = "lat"))
  ]

(* Nearest-rank percentile edges: these pins document behaviour the
   telemetry exporter (Obs.Registry) depends on. *)
let stats_edge_tests =
  [ Alcotest.test_case "percentile nearest-rank edges" `Quick (fun () ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) [ 10.0; 20.0; 30.0; 40.0 ];
        (* p=0 gives rank 0, clamped to the smallest sample. *)
        Alcotest.(check (float 1e-9)) "p=0" 10.0 (Stats.Summary.percentile s 0.0);
        Alcotest.(check (float 1e-9)) "p=1" 40.0 (Stats.Summary.percentile s 1.0);
        (* Even n: nearest-rank takes the lower of the middle pair,
           never an interpolated value. *)
        Alcotest.(check (float 1e-9)) "p=0.5 even n" 20.0
          (Stats.Summary.percentile s 0.5);
        (* Just past a rank boundary jumps to the next sample. *)
        Alcotest.(check (float 1e-9)) "p=0.51" 30.0 (Stats.Summary.percentile s 0.51));
    Alcotest.test_case "percentile single sample" `Quick (fun () ->
        let s = Stats.Summary.create () in
        Stats.Summary.add s 7.5;
        List.iter
          (fun p ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "p=%g" p)
              7.5
              (Stats.Summary.percentile s p))
          [ 0.0; 0.5; 1.0 ]);
    Alcotest.test_case "percentile duplicate samples" `Quick (fun () ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) [ 5.0; 5.0; 5.0; 9.0 ];
        Alcotest.(check (float 1e-9)) "p=0.5" 5.0 (Stats.Summary.percentile s 0.5);
        Alcotest.(check (float 1e-9)) "p=0.75" 5.0 (Stats.Summary.percentile s 0.75);
        Alcotest.(check (float 1e-9)) "p=0.76" 9.0 (Stats.Summary.percentile s 0.76);
        Alcotest.check_raises "p>1 rejected"
          (Invalid_argument "Summary.percentile: p outside [0,1]") (fun () ->
            ignore (Stats.Summary.percentile s 1.5)))
  ]

(* Test events: [Text m] renders as [m]; [Timed (m, d)] as [m], a
   space and [d] as {!Time.render} writes it. *)
type Trace.event += Text of string | Timed of string * Time.t | Counted of string

(* How many times a [Counted] event has been rendered. *)
let renderings = ref 0

let () =
  Trace.register (fun l -> function
    | Counted m ->
      incr renderings;
      Line.add_string l m;
      true
    | Text m ->
      Line.add_string l m;
      true
    | Timed (m, d) ->
      Line.add_string l m;
      Line.add_char l ' ';
      Time.render l d;
      true
    | _ -> false)

let text_of r = Trace.message r

(* Every record [tr] writes from now on, oldest first. *)
let collect tr =
  let seen = ref [] in
  Trace.on_record tr (fun r -> seen := r :: !seen);
  fun () -> List.rev !seen

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let trace_tests =
  [ Alcotest.test_case "records carry time and category" `Quick (fun () ->
        let sim = Sim.create () in
        let tr = Trace.create sim in
        let records = collect tr in
        ignore (Sim.schedule_at sim 3.0 (fun () -> Trace.record tr ~category:"mld" (Text "report")));
        ignore
          (Sim.schedule_at sim 5.0 (fun () ->
               Trace.record tr ~category:"pim" (Timed ("graft", 0.0125))));
        Sim.run sim;
        match records () with
        | [ a; b ] ->
          Alcotest.(check (float 1e-9)) "t1" 3.0 a.Trace.at;
          Alcotest.(check string) "cat1" "mld" a.Trace.category;
          Alcotest.(check string) "msg2" "graft 12.5ms" (text_of b)
        | other -> Alcotest.failf "expected 2 records, got %d" (List.length other));
    Alcotest.test_case "filtering and counting" `Quick (fun () ->
        let sim = Sim.create () in
        let tr = Trace.create sim in
        let records = collect tr in
        (* Observers run in registration order, each after the record
           is counted. *)
        let order = ref [] in
        Trace.on_record tr (fun _ -> order := ("first", Trace.count tr) :: !order);
        Trace.on_record tr (fun _ -> order := ("second", Trace.count tr) :: !order);
        Trace.record tr ~category:"a" (Text "1");
        Trace.record tr ~category:"b" (Text "2");
        Trace.record tr ~category:"a" (Text "3");
        Alcotest.(check int) "total" 3 (Trace.count tr);
        Alcotest.(check (list string)) "messages of a" [ "1"; "3" ]
          (List.filter_map
             (fun r -> if r.Trace.category = "a" then Some (text_of r) else None)
             (records ()));
        Alcotest.(check (list (pair string int))) "observer order"
          [ ("first", 1); ("second", 1); ("first", 2); ("second", 2); ("first", 3);
            ("second", 3) ]
          (List.rev !order));
    Alcotest.test_case "records render only when folded or read" `Quick (fun () ->
        let sim = Sim.create () in
        let tr = Trace.create sim in
        let before = !renderings in
        let rendered () = !renderings - before in
        for i = 1 to 5 do
          Trace.record tr ~category:"x" (Counted (string_of_int i))
        done;
        Alcotest.(check int) "recording renders nothing" 0 (rendered ());
        let d = Trace.digest tr in
        Alcotest.(check int) "the digest renders each record once" 5 (rendered ());
        Alcotest.(check string) "again, from the partials" d (Trace.digest tr);
        Alcotest.(check int) "and not twice" 5 (rendered ());
        Alcotest.(check (list string)) "display renders" [ "5"; "4" ]
          (List.map text_of (take 2 (Trace.recent tr)));
        (* Past the ring, the record the ring drops is folded. *)
        for i = 6 to Trace.recent_capacity + 6 do
          Trace.record tr ~category:"x" (Counted (string_of_int i))
        done;
        Alcotest.(check int) "the ring folds what it drops" 8 (rendered ()));
    Alcotest.test_case "recent is the ring of the newest records, newest first" `Quick
      (fun () ->
        let sim = Sim.create () in
        let tr = Trace.create sim in
        let messages () = List.map text_of (Trace.recent tr) in
        Alcotest.(check (list string)) "empty" [] (messages ());
        Trace.record tr ~category:"x" (Text "0");
        Trace.record tr ~category:"x" (Text "1");
        Alcotest.(check (list string)) "short" [ "1"; "0" ] (messages ());
        for i = 2 to 29 do
          Trace.record tr ~category:"x" (Text (string_of_int i))
        done;
        Alcotest.(check int) "capacity" 12 Trace.recent_capacity;
        Alcotest.(check (list string)) "wrapped"
          (List.init 12 (fun k -> string_of_int (29 - k)))
          (messages ()));
    Alcotest.test_case "a trace retains at most 32 B per record" `Quick (fun () ->
        (* The records themselves are not kept: what stays is the
           16-byte digest partial of each (in a buffer that at most
           doubles), the ring and the rendering buffers. *)
        let n = 100_000 in
        let live_bytes () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
        in
        let sim = Sim.create () in
        let before = live_bytes () in
        let tr = Trace.create sim in
        for i = 1 to n do
          Trace.record tr ~category:"mld"
            (Mld.Mld_event.General_query_sent (Printf.sprintf "A/L%d" i))
        done;
        let retained = live_bytes () - before in
        Alcotest.(check int) "all counted" n (Trace.count tr);
        if retained > 32 * n then
          Alcotest.failf "%d records retain %d B (%.1f B each)" n retained
            (float_of_int retained /. float_of_int n))
  ]

(* [Trace.digest] as it was computed with [Printf], kept verbatim as
   the reference the streaming digest must reproduce, over the records
   oldest first. *)
let reference_digest records =
  let ctx = Buffer.create 4096 in
  let partials =
    List.fold_left
      (fun acc (r : Trace.record) ->
        Buffer.clear ctx;
        Buffer.add_string ctx (Printf.sprintf "%.9f|" r.at);
        Buffer.add_string ctx r.category;
        Buffer.add_char ctx '|';
        Buffer.add_string ctx (Trace.message r);
        Buffer.add_char ctx '\n';
        Digest.string (Buffer.contents ctx) :: acc)
      [] (List.rev records)
  in
  Digest.to_hex (Digest.string (String.concat "" partials))

let digest_tests =
  (* The digest line's time field, as the fold writes it. *)
  let fixed9 t =
    let l = Line.create 0 in
    Line.add_fixed l t 9;
    Line.contents l
  in
  let agrees what t =
    let expected = Printf.sprintf "%.9f" t in
    let actual = fixed9 t in
    if not (String.equal expected actual) then
      Alcotest.failf "%s: fixed9 %h gives %S, Printf %S" what t actual expected
  in
  let rng = Random.State.make [| 22 |] in
  [ Alcotest.test_case "fixed9 matches Printf on random times" `Quick (fun () ->
        for _ = 1 to 200_000 do
          agrees "random" (Random.State.float rng 1e4)
        done);
    Alcotest.test_case "fixed9 matches Printf on exact decimal ties" `Quick (fun () ->
        (* k / 2^10 s is an exact tie at the ninth decimal for every odd
           k; k / 2^20 s for many k. *)
        for k = 0 to (1 lsl 20) - 1 do
          agrees "k/2^10" (float_of_int k /. 1024.0);
          agrees "k/2^20" (float_of_int k /. 1048576.0)
        done);
    Alcotest.test_case "fixed9 matches Printf on decimal near-ties" `Quick (fun () ->
        (* The doubles nearest x.xxxxxxxxx5 and their neighbours: the
           residual, not the rounded product, decides these. *)
        for _ = 1 to 100_000 do
          let whole = Random.State.int rng 10_000 in
          let nanos = Random.State.int rng 1_000_000_000 in
          let t = float_of_int whole +. ((float_of_int nanos +. 0.5) /. 1e9) in
          List.iter (agrees "near-tie") [ t; Float.pred t; Float.succ t ]
        done);
    Alcotest.test_case "fixed9 at zero, the fallback bounds and large times" `Quick
      (fun () ->
        (* In range while t * 1e9 < 2^52, i.e. t < ~4.5e6 s. *)
        let bound = 0x1p52 /. 1e9 in
        let rec steps f x n = if n = 0 then [] else let y = f x in y :: steps f y (n - 1) in
        let near x = (x :: steps Float.pred x 4) @ steps Float.succ x 4 in
        List.iter (agrees "edge")
          ([ 0.0; -0.0; 5e-10; 4.999999999e-10; 1.5e-9; 1.0; 0.9999999995; 1e6; 1e7;
             1e9; 1e15; 1e300; Float.max_float; Float.min_float; 4.9e-324; -1.5;
             Float.infinity; Float.neg_infinity; Float.nan ]
           @ near bound @ near (bound /. 2.0) @ near (2.0 *. bound) @ near (4.0 *. bound)
           @ near 4e6);
        (* Either side of the bound, and well past it. *)
        for _ = 1 to 20_000 do
          agrees "large" (Random.State.float rng 1e8)
        done)
    ]

let digest_oracle_tests =
  let text =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_bound 5) (oneofl [ "|"; "\n"; "a"; "pim"; ""; "x|y\n"; "%.9f"; "@[" ])))
  in
  (* Arbitrary times, exact ties at 2^-10 s, times beyond the fast
     writer's range (>= 2^52 ns), rendered from their exact digits, and the
     clock's two signed or non-finite values: -0. (a run to -0. while
     the clock reads 0) and +inf (a run with no bound left). *)
  let time =
    QCheck.Gen.(
      frequency
        [ (5, float_bound_exclusive 1e4);
          (2, map (fun k -> float_of_int k /. 1024.0) (int_bound 100_000));
          (1, map (fun x -> 1e7 +. x) (float_bound_exclusive 1e9));
          (1, return (-0.0));
          (1, return Float.infinity) ])
  in
  (* A step writes a text record, or one whose message ends in a
     duration (each of [Time.render]'s branches), or reads the digest
     mid-stream. *)
  let duration =
    QCheck.Gen.(
      oneof
        [ float_bound_exclusive 1.0;
          float_range 1.0 119.999;
          float_range 120.0 1e5;
          map Float.neg (float_bound_exclusive 10.0);
          oneofl [ 0.0; -0.0; 1.0; 120.0; 0.0005; 0.00005; Float.infinity; Float.nan ] ])
  in
  let step =
    QCheck.Gen.(
      pair time
        (frequency
           [ (6, map2 (fun c m -> `Record (c, m)) text text);
             (2, map3 (fun c m d -> `Timed (c, m, d)) text text duration);
             (1, return `Digest) ]))
  in
  let show_step (t, s) =
    match s with
    | `Record (c, m) -> Printf.sprintf "%h record %S %S" t c m
    | `Timed (c, m, d) -> Printf.sprintf "%h timed %S %S %h" t c m d
    | `Digest -> Printf.sprintf "%h digest" t
  in
  let streams =
    QCheck.make
      ~print:(fun steps -> String.concat "; " (List.map show_step steps))
      QCheck.Gen.(list_size (int_bound 80) step)
  in
  let stream_matches_reference steps =
    let sim = Sim.create () in
    (* A far event lets [Sim.run ~until] park the clock at any earlier
       time, -0. included; it fires only on the way to +inf. *)
    ignore (Sim.schedule_at sim 1e12 ignore);
    let tr = Trace.create sim in
    let records = collect tr in
    let expected = ref [] in
    let ok = ref true in
    List.iter
      (fun (t, s) ->
        Sim.run ~until:t sim;
        let expect category message =
          expected := (Sim.now sim, category, message) :: !expected
        in
        match s with
        | `Record (category, message) ->
          Trace.record tr ~category (Text message);
          expect category message
        | `Timed (category, message, d) ->
          Trace.record tr ~category (Timed (message, d));
          expect category (Format.asprintf "%s %a" message Time_oracle.pp d)
        | `Digest -> ok := !ok && Trace.digest tr = reference_digest (records ()))
      (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) steps);
    let records = records () in
    let newest_first = List.rev records in
    !ok
    && List.map (fun r -> (r.Trace.at, r.Trace.category, text_of r)) newest_first
       = !expected
    && Trace.digest tr = reference_digest records
    && Trace.digest tr = reference_digest records
    && Trace.count tr = List.length records
    (* Physically: a NaN duration makes a record unequal to itself. *)
    && List.equal ( == ) (Trace.recent tr) (take Trace.recent_capacity newest_first)
  in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"digest matches the Printf rendering on random traces"
         ~count:300 streams stream_matches_reference);
    Alcotest.test_case "digest matches the Printf rendering on the Figure-1 runs" `Quick
      (fun () ->
        List.iter
          (fun approach ->
            let records = ref [] in
            let tr =
              Figure1_golden.canonical_trace
                ~on_trace:(fun r -> records := r :: !records)
                approach
            in
            Alcotest.(check string) (Mmcast.Approach.name approach)
              (reference_digest (List.rev !records))
              (Trace.digest tr))
          Mmcast.Approach.all)
  ]

let odds_and_ends =
  [ Alcotest.test_case "sim step and pending" `Quick (fun () ->
        let sim = Sim.create () in
        let hits = ref 0 in
        ignore (Sim.schedule_at sim 1.0 (fun () -> incr hits));
        ignore (Sim.schedule_at sim 2.0 (fun () -> incr hits));
        Alcotest.(check int) "two pending" 2 (Sim.pending sim);
        Alcotest.(check bool) "step executes one" true (Sim.step sim);
        Alcotest.(check int) "one executed" 1 !hits;
        Alcotest.(check int) "one pending" 1 (Sim.pending sim);
        ignore (Sim.step sim);
        Alcotest.(check bool) "empty queue" false (Sim.step sim));
    Alcotest.test_case "rng error paths" `Quick (fun () ->
        let rng = Rng.create 1 in
        (match Rng.uniform rng 5.0 1.0 with
         | _ -> Alcotest.fail "hi < lo accepted"
         | exception Invalid_argument _ -> ());
        (match Rng.pick rng [||] with
         | _ -> Alcotest.fail "empty pick accepted"
         | exception Invalid_argument _ -> ());
        (match Rng.exponential rng 0.0 with
         | _ -> Alcotest.fail "zero mean accepted"
         | exception Invalid_argument _ -> ());
        match Rng.int rng 0 with
        | _ -> Alcotest.fail "zero bound accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "timer name accessor" `Quick (fun () ->
        let sim = Sim.create () in
        let t = Timer.create sim ~name:"my-timer" ~on_expire:(fun () -> ()) in
        Alcotest.(check string) "name" "my-timer" (Timer.name t));
    Alcotest.test_case "time helpers" `Quick (fun () ->
        Alcotest.(check bool) "lt" true (Time.( <. ) 1.0 2.0);
        Alcotest.(check bool) "le" true (Time.( <=. ) 2.0 2.0);
        Alcotest.(check (float 1e-9)) "max" 2.0 (Time.max 1.0 2.0);
        Alcotest.(check (float 1e-9)) "min" 1.0 (Time.min 1.0 2.0);
        Alcotest.(check bool) "finite" true (Time.is_finite 1.0);
        Alcotest.(check bool) "inf" false (Time.is_finite infinity);
        Alcotest.(check string) "inf prints" "inf" (Time.to_string infinity))
  ]

(* ---- Line: printf's renderings without Printf ---- *)

let rendered f =
  let l = Line.create 0 in
  f l;
  Line.contents l

(* Doubles over the whole bit space (NaNs, infinities, subnormals and
   huge values included), ordinary times, exact decimal ties at 2^-10,
   and values just either side of x.5 at several scales. *)
let any_float =
  QCheck.Gen.(
    frequency
      [ (3, map Int64.float_of_bits ui64);
        (3, float_bound_exclusive 1e4);
        (2, map Float.neg (float_bound_exclusive 1e3));
        (2, map (fun k -> float_of_int k /. 1024.0) (int_bound 1_000_000));
        ( 2,
          map3
            (fun n e side ->
              let x = (float_of_int n +. 0.5) /. (10.0 ** float_of_int e) in
              match side with 0 -> Float.pred x | 1 -> x | _ -> Float.succ x)
            (int_bound 100_000) (int_bound 9) (int_bound 2) );
        ( 1,
          oneofl
            [ 0.0; -0.0; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
              Float.max_float; Float.min_float; 4.9e-324; 0x1p52; 999999.5; 99999.95;
              0.00001; 0.0001; 1e-5; 1e21; 5e-5 ] ) ])

let line_float_property name ~count render reference =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:(Printf.sprintf "%h") any_float)
       (fun x ->
         let expected = reference x and actual = rendered (fun l -> render l x) in
         String.equal expected actual
         || QCheck.Test.fail_reportf "%h: %S, expected %S" x actual expected))

let line_tests =
  [ line_float_property "add_fixed matches Printf %.kf for k = 0..9" ~count:20_000
      (fun l x -> for k = 0 to 9 do Line.add_fixed l x k; Line.add_char l ' ' done)
      (fun x -> String.concat "" (List.init 10 (fun k -> Printf.sprintf "%.*f " k x)));
    line_float_property "Time.render matches the Format Time.pp" ~count:20_000 Time.render
      (Format.asprintf "%a" Time_oracle.pp);
    Alcotest.test_case "add_int matches string_of_int" `Quick (fun () ->
        let rng = Random.State.make [| 31 |] in
        List.iter
          (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (rendered (fun l -> Line.add_int l n)))
          ([ 0; 1; -1; 9; 10; -10; max_int; min_int; min_int + 1 ]
           @ List.init 1000 (fun _ -> Random.State.bits rng - Random.State.bits rng)));
    Alcotest.test_case "add_fixed rejects a precision outside 0..9" `Quick (fun () ->
        Alcotest.check_raises "10" (Invalid_argument "Line.add_fixed: precision outside 0..9")
          (fun () -> Line.add_fixed (Line.create 0) 1.0 10));
    Alcotest.test_case "a buffer grows across writes and clears to empty" `Quick (fun () ->
        let l = Line.create 0 in
        let long = String.make 1000 'x' in
        Line.add_string l long;
        Line.add_fixed l 1e300 9;
        Alcotest.(check string) "contents" (long ^ Printf.sprintf "%.9f" 1e300) (Line.contents l);
        Alcotest.(check string) "digest" (Digest.string (Line.contents l)) (Line.digest l);
        Line.clear l;
        Alcotest.(check string) "cleared" "" (Line.contents l);
        Line.add_char l 'y';
        Alcotest.(check string) "reused" "y" (Line.contents l))
  ]

let () =
  Alcotest.run "engine"
    [ ("time", time_tests);
      ("event_queue", event_queue_tests @ event_queue_properties);
      ("wheel", wheel_tests @ wheel_properties @ wheel_memory_tests);
      ("tie-break", tie_break_tests);
      ("sim", sim_tests);
      ("timer", timer_tests);
      ("rng", rng_tests @ rng_properties);
      ("stats", stats_tests @ stats_extra_tests @ stats_edge_tests);
      ("trace", trace_tests @ digest_tests @ digest_oracle_tests);
      ("odds and ends", odds_and_ends);
      ("line", line_tests)
    ]
