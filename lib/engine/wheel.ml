(* Hierarchical timer wheel with the binary heap's exact semantics.

   The protocol stack restarts timers constantly — PIM prune and state
   refresh, MLD queries, binding lifetimes — and under the heap every
   restart is a cancel plus an O(log n) push whose entry later bubbles
   through pops.  Here a push is an O(1) append into the slot covering
   its quantized deadline, a cancel is one store, and cancelled entries
   die in bulk when their slot is scanned or cascaded instead of sifting
   through a big heap.

   Correctness bar: pops must replay the heap's order {e exactly} —
   strictly increasing (time, global push seq) — because golden trace
   digests pin event order.  Three devices deliver that:

   - Each slot keeps its entries ordered on (time, seq), so entries
     that share a slot (and, at L1/L2, a coarse time range) drain in
     true order, not insertion order.  A slot is a sorted run plus a
     small binary min-heap: an entry not before the run's tail is
     appended to the run, any other goes to the heap, and the slot's
     minimum is the earlier of the two heads.  A PIM-DM flood schedules
     one delivery per downstream router at now + link delay, so a
     flood's deliveries share a quantum and mostly arrive in time
     order: they append and pop in O(1), and only the stragglers sift.
   - The quantum is fine (2^-10 s) relative to every protocol timer
     and link delay, and slots are scanned in quantum order, so
     cross-slot order equals time order; equal times always share a
     quantum and therefore a slot, where seq decides.
   - Deadlines beyond the outermost window go to an overflow slot
     ordered the same way; the front candidate is always min of the
     wheel's first live slot minimum and the overflow's, compared on
     (time, seq) with the {e global} seq counter breaking ties across
     the two structures.

   Windows advance only when a pop crosses them.  Any slot the advance
   skips can hold only cancelled entries — a live one would have been
   an earlier minimum than the entry being popped — which is also why a
   slot index aliased from an older window can never hide a live entry:
   such leftovers are provably cancelled and are dropped on the next
   prune or cascade of that slot.

   [postpone] moves a pending event to a strictly later deadline in
   place: the entry is stamped with its new key — the new deadline and
   the next global seq, exactly what cancel + push would give it — but
   stays physically where it is, under its old key (a cascade moves it
   down under that key too), until it reaches a slot head; only then
   does [prune] re-place it under the new key.  Its old key is earlier than its new one, so it
   surfaces before anything it could now precede: the scan meets it at
   a slot head before passing any later slot, and re-places it there.
   Hence the argument above extends unchanged — a skipped slot holds no
   postponed entry either, because the scan that moved past it met every
   entry it held — and pops still come out in strictly increasing
   (time, seq) order, identical to cancel + push, with no extra event
   ever dispatched.

   Slots are allocated lazily: the level arrays start out holding one
   shared empty slot, which nothing ever mutates, and a slot record
   replaces it at the first placement into that index.  A Figure-1 run
   places into 322 of the 1,792 indices, a 5-router exploration
   schedule into about 100, so most records would never be used. *)

(* An entry is also its own handle.  [time]/[q]/[seq] are the key it
   is physically placed under; [due]/[key] are the key it will pop at.
   The two agree until [postpone] moves the event later, and [key]
   doubles as the status: [>= 0] pending, [-1] cancelled, [-2] fired.
   So [e.key = e.seq] is exactly "pending and not moved". *)
type 'a entry = {
  mutable time : Time.t;
  mutable q : int;  (* quantized deadline: [time * 1024] truncated *)
  mutable seq : int;  (* global push order; the tie-break everywhere *)
  mutable payload : 'a;
  mutable due : Time.t;  (* shares [time]'s box until postponed *)
  mutable key : int;
}

type 'a handle = 'a entry

let cancelled = -1
let fired = -2

let pending e = e.key >= 0
let settled e = e.key = e.seq

(* A slot: a sorted run and a binary min-heap, both on (time, seq).
   [run.(rhead) .. run.(rlen - 1)] is sorted; [heap.(0) .. heap.(hlen -
   1)] holds the entries that arrived before the run's tail.  Every
   other cell holds [hole ()], so an entry that leaves the slot — fired,
   dropped as cancelled, re-placed or cascaded — is not retained by it.
   The heap holds entries only while the run does: a run that empties
   takes the heap's entries over, in order.  So [rlen = 0] iff the slot
   is empty, and then [rhead = hlen = 0]. *)
type 'a slot = {
  mutable run : 'a entry array;
  mutable rhead : int;
  mutable rlen : int;
  mutable heap : 'a entry array;
  mutable hlen : int;
}

let bits0 = 10 (* 1024 L0 slots of one quantum: a 1 s window *)

let bits1 = 9 (* 512 L1 slots of one L0 window: a 512 s window *)

let bits2 = 8 (* 256 L2 slots of one L1 window: a ~36 h window *)

type 'a t = {
  l0 : 'a slot array;
  l1 : 'a slot array;
  l2 : 'a slot array;
  overflow : 'a slot;  (* deadlines beyond the L2 window *)
  (* The slot every unused index of [l0]/[l1]/[l2] holds.  It is never
     written: placement swaps in a fresh slot first, and every other
     mutation acts on a slot that holds an entry. *)
  empty : 'a slot;
  mutable b0 : int;  (* current window index per level: b0 = floor-quantum lsr bits0 *)
  mutable b1 : int;
  mutable b2 : int;
  (* Physical entry counts per level (cancelled included) — scan
     short-circuits on empty levels. *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  (* Scan cursors, monotone except when a placement lands below them:
     no L0 entry at a quantum below [hint0] (within the current
     window), no L1 entry in an absolute slot below [hint1], no L2
     entry in an absolute slot below [hint2]. *)
  mutable hint0 : int;
  mutable hint1 : int;
  mutable hint2 : int;
  mutable seq : int;
  mutable live : int;
  (* Memoized front of the queue: the live entry the next pop will
     return, and which level holds it (3 = overflow).  Set by a scan or
     by a push that beats the cached entry; cleared by pop.  Cancelling
     or postponing the cached entry leaves it stale — it is valid only
     while [settled]. *)
  mutable front : 'a entry option;
  mutable front_level : int;
}

let fresh_slot () = { run = [||]; rhead = 0; rlen = 0; heap = [||]; hlen = 0 }

let create () =
  let empty = fresh_slot () in
  { l0 = Array.make (1 lsl bits0) empty;
    l1 = Array.make (1 lsl bits1) empty;
    l2 = Array.make (1 lsl bits2) empty;
    overflow = fresh_slot ();
    empty;
    b0 = 0;
    b1 = 0;
    b2 = 0;
    c0 = 0;
    c1 = 0;
    c2 = 0;
    hint0 = 0;
    hint1 = 0;
    hint2 = 0;
    seq = 0;
    live = 0;
    front = None;
    front_level = 0 }

let quantum time =
  let f = Time.seconds time *. 1024.0 in
  (* Guard the int conversion: huge or non-finite deadlines saturate
     and land in the overflow heap, where ordering uses the raw time. *)
  if f >= 4.0e18 then max_int else if f > 0.0 then int_of_float f else 0

let entry_before a b =
  match Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

(* ---- slots ---- *)

(* The filler of vacated cells.  An immediate, so a cell holding it
   keeps nothing reachable; sound because no cell outside a slot's live
   ranges is ever read, and an entry array is never a float array. *)
let hole () : 'a entry = Obj.magic 0

let slot_is_empty s = s.rlen = 0

let slot_size s = s.rlen - s.rhead + s.hlen

(* The earlier of the two heads; caller checked the slot is not empty. *)
let slot_min s =
  let r = s.run.(s.rhead) in
  if s.hlen = 0 then r
  else
    let h = s.heap.(0) in
    if entry_before h r then h else r

(* Empty a slot and give back its arrays, so a drained slot costs its
   record alone.  An array field is stored only when it changes: a
   pointer store pays the write barrier, and popping a slot's only
   entry is the most common pop there is. *)
let release s =
  if s.run != [||] then s.run <- [||];
  s.rhead <- 0;
  s.rlen <- 0;
  if s.heap != [||] then s.heap <- [||];
  s.hlen <- 0

let rec sift_down arr len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < len && entry_before arr.(l) arr.(i) then l else i in
  let smallest = if r < len && entry_before arr.(r) arr.(smallest) then r else smallest in
  if smallest <> i then begin
    let tmp = arr.(i) in
    arr.(i) <- arr.(smallest);
    arr.(smallest) <- tmp;
    sift_down arr len smallest
  end

let sift_up arr i =
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    entry_before arr.(!i) arr.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = arr.(!i) in
    arr.(!i) <- arr.(p);
    arr.(p) <- tmp;
    i := p
  done

(* Append to the run.  A full array is compacted in place while its live
   part fits in half of it, and doubled otherwise, so a run that keeps
   draining at the head and growing at the tail stays within twice its
   peak length. *)
let run_append s e =
  let cap = Array.length s.run in
  if s.rlen = cap then begin
    let live = s.rlen - s.rhead in
    if cap > 0 && 2 * live <= cap then begin
      Array.blit s.run s.rhead s.run 0 live;
      Array.fill s.run live (cap - live) (hole ())
    end
    else begin
      let bigger = Array.make (max 4 (2 * cap)) (hole ()) in
      if live > 0 then Array.blit s.run s.rhead bigger 0 live;
      s.run <- bigger
    end;
    s.rhead <- 0;
    s.rlen <- live
  end;
  s.run.(s.rlen) <- e;
  s.rlen <- s.rlen + 1

let heap_push s e =
  if s.hlen = Array.length s.heap then begin
    let bigger = Array.make (max 4 (2 * s.hlen)) (hole ()) in
    Array.blit s.heap 0 bigger 0 s.hlen;
    s.heap <- bigger
  end;
  s.heap.(s.hlen) <- e;
  s.hlen <- s.hlen + 1;
  sift_up s.heap (s.hlen - 1)

let slot_push s e =
  if s.rlen = 0 || not (entry_before e s.run.(s.rlen - 1)) then run_append s e
  else heap_push s e

let heap_remove s i =
  let h = s.heap in
  s.hlen <- s.hlen - 1;
  if i < s.hlen then begin
    h.(i) <- h.(s.hlen);
    h.(s.hlen) <- hole ();
    if i > 0 && entry_before h.(i) h.((i - 1) / 2) then sift_up h i
    else sift_down h s.hlen i
  end
  else h.(i) <- hole ()

(* Drop the run's head cell.  A run that empties takes the heap's
   entries over, popped in order, or, with the heap empty too, the slot
   gives its arrays back (skipping the last cell's clear). *)
let run_advance s =
  if s.rhead + 1 < s.rlen then begin
    s.run.(s.rhead) <- hole ();
    s.rhead <- s.rhead + 1
  end
  else if s.hlen = 0 then release s
  else begin
    let n = s.hlen in
    s.run.(s.rhead) <- hole ();
    let run = if Array.length s.run >= n then s.run else Array.make n (hole ()) in
    for i = 0 to n - 1 do
      run.(i) <- s.heap.(0);
      heap_remove s 0
    done;
    s.run <- run;
    s.rhead <- 0;
    s.rlen <- n;
    s.heap <- [||]
  end

(* Remove and return the slot's minimum; caller checked the slot is not
   empty. *)
let slot_pop s =
  let r = s.run.(s.rhead) in
  if s.hlen > 0 && entry_before s.heap.(0) r then begin
    let h = s.heap.(0) in
    heap_remove s 0;
    h
  end
  else begin
    run_advance s;
    r
  end

(* Remove the entry at location [i]: a run index when [i >= 0], heap
   index [lnot i] otherwise (the locations [iter_front_ties] reports).
   A run entry is removed by shifting the run's head over it. *)
let slot_remove s i =
  if i >= 0 then begin
    if i > s.rhead then Array.blit s.run s.rhead s.run (s.rhead + 1) (i - s.rhead);
    run_advance s
  end
  else heap_remove s (lnot i)

(* The slot for index [i] of a level array, allocated on first use. *)
let slot_for t level i =
  let s = level.(i) in
  if s != t.empty then s
  else begin
    let s = fresh_slot () in
    level.(i) <- s;
    s
  end

(* ---- placement ---- *)

(* Returns the level the entry landed in (3 = overflow). *)
let place t e =
  let q = e.q in
  if q lsr bits0 = t.b0 then begin
    slot_push (slot_for t t.l0 (q land ((1 lsl bits0) - 1))) e;
    t.c0 <- t.c0 + 1;
    if q < t.hint0 then t.hint0 <- q;
    0
  end
  else if q lsr (bits0 + bits1) = t.b1 then begin
    let s1 = q lsr bits0 in
    slot_push (slot_for t t.l1 (s1 land ((1 lsl bits1) - 1))) e;
    t.c1 <- t.c1 + 1;
    if s1 < t.hint1 then t.hint1 <- s1;
    1
  end
  else if q lsr (bits0 + bits1 + bits2) = t.b2 then begin
    let s2 = q lsr (bits0 + bits1) in
    slot_push (slot_for t t.l2 (s2 land ((1 lsl bits2) - 1))) e;
    t.c2 <- t.c2 + 1;
    if s2 < t.hint2 then t.hint2 <- s2;
    2
  end
  else begin
    slot_push t.overflow e;
    3
  end

let push t time payload =
  let q = quantum time in
  if q < t.b0 lsl bits0 then
    invalid_arg "Wheel.push: time precedes the last popped event";
  let e = { time; q; seq = t.seq; payload; due = time; key = t.seq } in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  let level = place t e in
  (* Keep the front cache exact when the new entry beats it.  A [None]
     or stale cache stays as-is: claiming [e] is the minimum without a
     scan would be wrong. *)
  (match t.front with
   | Some f when settled f ->
     if entry_before e f then begin
       t.front <- Some e;
       t.front_level <- level
     end
   | Some _ | None -> ());
  e

let cancel t e =
  if pending e then begin
    e.key <- cancelled;
    t.live <- t.live - 1
  end

let is_cancelled _t e = e.key = cancelled

let postpone t e time payload =
  if not (pending e) then invalid_arg "Wheel.postpone: event is not pending";
  if Time.compare time e.due > 0 then begin
    e.due <- time;
    e.key <- t.seq;
    t.seq <- t.seq + 1;
    e.payload <- payload;
    e
  end
  else begin
    cancel t e;
    push t time payload
  end


(* ---- cascading ---- *)

(* Move every entry of an L1/L2 slot one level down (after the windows
   advanced), dropping cancelled entries — including aliased leftovers
   from older windows, which the header argument shows are always
   cancelled.  A postponed entry moves down under its old key like any
   other; [prune] re-places it when it reaches its slot's head. *)
let cascade t s ~level =
  let n = slot_size s in
  if n > 0 then begin
    (match level with
     | 1 -> t.c1 <- t.c1 - n
     | _ -> t.c2 <- t.c2 - n);
    let run = s.run and rhead = s.rhead and rlen = s.rlen in
    let heap = s.heap and hlen = s.hlen in
    release s;
    for i = rhead to rlen - 1 do
      let e = run.(i) in
      if pending e then ignore (place t e)
    done;
    for i = 0 to hlen - 1 do
      let e = heap.(i) in
      if pending e then ignore (place t e)
    done
  end

(* Advance the windows so [q] lies in the L0 window, cascading the
   newly-covered L2 and L1 slots down.  Called with [q] the quantum of
   the entry being popped (the global minimum), which is what makes
   skipped slots provably dead. *)
let advance_to t q =
  let n0 = q lsr bits0 in
  if n0 <> t.b0 then begin
    let n1 = q lsr (bits0 + bits1) in
    if n1 <> t.b1 then begin
      let n2 = q lsr (bits0 + bits1 + bits2) in
      if n2 <> t.b2 then t.b2 <- n2;
      t.b1 <- n1;
      t.b0 <- n0;
      cascade t t.l2.(n1 land ((1 lsl bits2) - 1)) ~level:2;
      cascade t t.l1.(n0 land ((1 lsl bits1) - 1)) ~level:1
    end
    else begin
      t.b0 <- n0;
      cascade t t.l1.(n0 land ((1 lsl bits1) - 1)) ~level:1
    end
  end

(* ---- the front of the queue ---- *)

(* Drop cancelled slot minima and re-place postponed ones under their
   new key (possibly back into this very slot) until the minimum is a
   settled entry or the slot is empty. *)
let rec prune t s ~level =
  if (not (slot_is_empty s)) && not (settled (slot_min s)) then begin
    let e = slot_pop s in
    (match level with
     | 0 -> t.c0 <- t.c0 - 1
     | 1 -> t.c1 <- t.c1 - 1
     | 2 -> t.c2 <- t.c2 - 1
     | _ -> ());
    if pending e then begin
      (* Postponed: its new key becomes its placed key. *)
      e.time <- e.due;
      e.q <- quantum e.due;
      e.seq <- e.key;
      ignore (place t e)
    end;
    prune t s ~level
  end

(* The first absolute index in [i, stop) whose slot in [slots] (of
   [mask + 1] slots) still holds an entry once pruned, or [stop].  Most
   slots a scan passes are empty, so those are skipped before the
   call to [prune]. *)
let rec scan t slots mask ~level i stop =
  if i >= stop then stop
  else begin
    let s = slots.(i land mask) in
    if slot_is_empty s then scan t slots mask ~level (i + 1) stop
    else begin
      prune t s ~level;
      if slot_is_empty s then scan t slots mask ~level (i + 1) stop else i
    end
  end

(* The slot holding the earliest live wheel entry, with its level in
   [t.front_level], or [t.empty].  Levels cover disjoint, increasing
   quantum ranges, so the first level with a live entry holds the wheel
   minimum.  Each level's cursor moves to what its scan found, or to
   the end of its window when the level holds nothing. *)
let wheel_min t =
  let stop0 = (t.b0 + 1) lsl bits0 in
  t.hint0 <-
    (if t.c0 = 0 then stop0
     else scan t t.l0 ((1 lsl bits0) - 1) ~level:0 (max t.hint0 (t.b0 lsl bits0)) stop0);
  if t.hint0 < stop0 then begin
    t.front_level <- 0;
    t.l0.(t.hint0 land ((1 lsl bits0) - 1))
  end
  else begin
    let stop1 = (t.b1 + 1) lsl bits1 in
    t.hint1 <-
      (if t.c1 = 0 then stop1
       else scan t t.l1 ((1 lsl bits1) - 1) ~level:1 (max t.hint1 (t.b0 + 1)) stop1);
    if t.hint1 < stop1 then begin
      t.front_level <- 1;
      t.l1.(t.hint1 land ((1 lsl bits1) - 1))
    end
    else begin
      let stop2 = (t.b2 + 1) lsl bits2 in
      t.hint2 <-
        (if t.c2 = 0 then stop2
         else scan t t.l2 ((1 lsl bits2) - 1) ~level:2 (max t.hint2 (t.b1 + 1)) stop2);
      if t.hint2 < stop2 then begin
        t.front_level <- 2;
        t.l2.(t.hint2 land ((1 lsl bits2) - 1))
      end
      else t.empty
    end
  end

(* Make [t.front] the global minimum: the earlier of the wheel scan
   and the overflow minimum, compared on (time, seq) — the overflow can
   hold quanta that meanwhile fell inside the windows.  A valid cache
   (set by the previous scan or by a push that beat it, and still
   settled) is reused as-is, which makes the peek-then-pop cycle cost
   one scan and no allocation beyond the cached option.  The overflow
   is pruned first: a postponed minimum it re-places may land in the
   wheel, which the scan then sees; what the scan re-places into the
   overflow is settled, so the minimum read afterwards needs no prune. *)
let refresh_front t =
  match t.front with
  | Some e when settled e -> ()
  | Some _ | None ->
    prune t t.overflow ~level:3;
    let w = wheel_min t in
    let o = t.overflow in
    if slot_is_empty o then
      t.front <- (if slot_is_empty w then None else Some (slot_min w))
    else if slot_is_empty w || entry_before (slot_min o) (slot_min w) then begin
      t.front <- Some (slot_min o);
      t.front_level <- 3
    end
    else t.front <- Some (slot_min w)

let peek_time t =
  refresh_front t;
  match t.front with
  | None -> None
  | Some e -> Some e.time

let pop t =
  refresh_front t;
  match t.front with
  | None -> None
  | Some e ->
    (match t.front_level with
     | 0 ->
       ignore (slot_pop t.l0.(e.q land ((1 lsl bits0) - 1)));
       t.c0 <- t.c0 - 1
     | 1 | 2 ->
       (* Bring the entry's quantum into the L0 window (cascades move
          it down), then take it off the front of its L0 slot. *)
       advance_to t e.q;
       let s = t.l0.(e.q land ((1 lsl bits0) - 1)) in
       prune t s ~level:0;
       ignore (slot_pop s);
       t.c0 <- t.c0 - 1
     | _ ->
       ignore (slot_pop t.overflow);
       (* Advance anyway so subsequent pushes place near the new now. *)
       advance_to t e.q);
    e.key <- fired;
    t.live <- t.live - 1;
    t.front <- None;
    Some (e.time, e.payload)

let size t = t.live

let is_empty t = t.live = 0

(* ---- choice points over the front ---- *)

(* The slot where current placement logic would put quantum [q] (and
   the level it sits at), or [None] when [q] lies beyond the wheel and
   only the overflow heap can hold it.  Every live entry with quantum
   [q] is either in this slot or in the overflow: placement is a pure
   function of (q, windows), windows only advance at pops of the global
   minimum, and [advance_to] cascades exactly the slots a new window
   uncovers — so live entries never linger at a stale level above the
   one this function reports (the header argument: skipped slots hold
   only cancelled entries; postponed ones are re-placed before a scan
   moves past them). *)
let slot_of_quantum t q =
  if q lsr bits0 = t.b0 then Some (t.l0.(q land ((1 lsl bits0) - 1)), 0)
  else if q lsr (bits0 + bits1) = t.b1 then
    Some (t.l1.((q lsr bits0) land ((1 lsl bits1) - 1)), 1)
  else if q lsr (bits0 + bits1 + bits2) = t.b2 then
    Some (t.l2.((q lsr (bits0 + bits1)) land ((1 lsl bits2) - 1)), 2)
  else None

(* Apply [f entry slot level location] to every live entry whose
   timestamp equals the front entry's, [location] as [slot_remove] takes
   it.  Candidates live in the front quantum's placement slot and
   (rarely) the overflow: equal times share a quantum, so nothing else
   can hold one.  Within a slot, the entries no later than the front
   are a prefix of the run and a subtree at the top of the heap, so the
   walk stops at the first later entry of each.  A postponed entry
   still placed at the front's time is skipped: its new deadline is
   strictly later, so it is no tie. *)
let iter_front_ties t front f =
  let visit x s level i =
    if settled x && Time.compare x.time front.time = 0 then f x s level i
  in
  let walk s level =
    let i = ref s.rhead in
    while !i < s.rlen && Time.compare s.run.(!i).time front.time <= 0 do
      visit s.run.(!i) s level !i;
      incr i
    done;
    let rec down i =
      if i < s.hlen && Time.compare s.heap.(i).time front.time <= 0 then begin
        visit s.heap.(i) s level (lnot i);
        down ((2 * i) + 1);
        down ((2 * i) + 2)
      end
    in
    down 0
  in
  (match slot_of_quantum t front.q with
   | Some (s, level) -> walk s level
   | None -> ());
  walk t.overflow 3

let front_count t =
  refresh_front t;
  match t.front with
  | None -> 0
  | Some e ->
    let n = ref 0 in
    iter_front_ties t e (fun _ _ _ _ -> incr n);
    !n

let pop_kth t k =
  refresh_front t;
  match t.front with
  | None -> None
  | Some e ->
    if k = 0 then pop t
    else begin
      let cands = ref [] in
      iter_front_ties t e (fun x s level i -> cands := (x, s, level, i) :: !cands);
      let arr = Array.of_list !cands in
      Array.sort
        (fun ((a : _ entry), _, _, _) ((b : _ entry), _, _, _) ->
          compare a.seq b.seq)
        arr;
      if k < 0 || k >= Array.length arr then
        invalid_arg
          (Printf.sprintf "Wheel.pop_kth: index %d out of %d front ties" k
             (Array.length arr));
      let x, s, level, i = arr.(k) in
      slot_remove s i;
      (match level with
       | 0 -> t.c0 <- t.c0 - 1
       | 1 -> t.c1 <- t.c1 - 1
       | 2 -> t.c2 <- t.c2 - 1
       | _ -> ());
      x.key <- fired;
      t.live <- t.live - 1;
      t.front <- None;
      (* Advance after removal, matching [pop]'s floor semantics: the
         popped quantum becomes the wheel floor. *)
      advance_to t x.q;
      Some (x.time, x.payload)
    end
