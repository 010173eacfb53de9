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
   schedule into about 100, so most records would never be used.

   L0 keeps an occupancy bitmap, one bit per slot, with the invariant
   "a non-empty slot has its bit set".  Placement sets the bit; only
   the L0 scan clears it, when it finds the slot empty after pruning.
   A bit may therefore be stale (set on an empty slot) but never
   missing, so the scan jumps from set bit to set bit instead of
   testing each of the window's 1,024 slots. *)

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
  (* L0 occupancy: bit [i land 31] of [occ.(i lsr 5)] is set whenever
     L0 slot [i] is non-empty (see the header). *)
  occ : int array;
  mutable seq : int;
  mutable live : int;
  (* Memoized front of the queue: the live entry the next pop will
     return, and which level holds it (3 = overflow).  Set by a scan or
     by a push that beats the cached entry; reset to [none] by a pop.
     Cancelling or postponing the cached entry leaves it stale — it is
     valid only while [settled], which [none] never is. *)
  mutable front : 'a entry;
  mutable front_level : int;
  none : 'a entry;
  (* [pop_choice]'s scratch: the front ties in seq order and where each
     sits, as [tie_loc] encodes it.  Cells past the ties of the call in
     progress hold [hole ()]. *)
  mutable ties : 'a entry array;
  mutable locs : int array;
}

(* The filler of vacated cells.  An immediate, so a cell holding it
   keeps nothing reachable; sound because no cell outside a slot's live
   ranges is ever read, and an entry array is never a float array. *)
let hole () : 'a entry = Obj.magic 0

let fresh_slot () = { run = [||]; rhead = 0; rlen = 0; heap = [||]; hlen = 0 }

let mask0 = (1 lsl bits0) - 1

let create () =
  let empty = fresh_slot () in
  (* Never settled ([key <> seq]), so a front cache holding it is
     always refreshed; its payload is never read. *)
  let none = { time = 0.0; q = 0; seq = 0; payload = Obj.magic 0; due = 0.0; key = fired } in
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
    occ = Array.make (1 lsl (bits0 - 5)) 0;
    seq = 0;
    live = 0;
    front = none;
    front_level = 0;
    none;
    ties = [||];
    locs = [||] }

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
   index [lnot i] otherwise (a tie location halved, see [tie_loc]).
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
    let i = q land mask0 in
    slot_push (slot_for t t.l0 i) e;
    t.occ.(i lsr 5) <- t.occ.(i lsr 5) lor (1 lsl (i land 31));
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
  (* Keep the front cache exact when the new entry beats it.  An unset
     or stale cache stays as-is: claiming [e] is the minimum without a
     scan would be wrong. *)
  let f = t.front in
  if settled f && entry_before e f then begin
    t.front <- e;
    t.front_level <- level
  end;
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
   call to [prune].  L1 and L2 scan this way; L0 uses its bitmap. *)
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

(* The index of the lowest set bit of a non-zero 32-bit [x]: isolate
   it, and a de Bruijn multiply puts a distinct 5-bit pattern in the
   top bits of the product's low 32. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let ctz32 x = Char.code debruijn.[(((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27]

(* [scan] over L0's bitmap: [bits] is what is left to visit of word [w]
   (slots [32 w] to [32 w + 31] of the window starting at quantum
   [base]).  Pruning may re-place a postponed entry into a later slot
   of the same word, so the word is re-read after each empty slot. *)
let rec scan0 t base stop w bits =
  if bits <> 0 then begin
    let b = ctz32 bits in
    let j = (w lsl 5) lor b in
    let s = t.l0.(j) in
    prune t s ~level:0;
    if not (slot_is_empty s) then base + j
    else begin
      let word = t.occ.(w) land lnot (1 lsl b) in
      t.occ.(w) <- word;
      scan0 t base stop w (word land (-2 lsl b))
    end
  end
  else if w + 1 < Array.length t.occ then scan0 t base stop (w + 1) t.occ.(w + 1)
  else stop

(* The slot holding the earliest live wheel entry, with its level in
   [t.front_level], or [t.empty].  Levels cover disjoint, increasing
   quantum ranges, so the first level with a live entry holds the wheel
   minimum.  Each level's cursor moves to what its scan found, or to
   the end of its window when the level holds nothing. *)
let wheel_min t =
  let base = t.b0 lsl bits0 in
  let stop0 = base + (1 lsl bits0) in
  t.hint0 <-
    (if t.c0 = 0 then stop0
     else begin
       let j = max t.hint0 base - base in
       scan0 t base stop0 (j lsr 5) (t.occ.(j lsr 5) land (-1 lsl (j land 31)))
     end);
  if t.hint0 < stop0 then begin
    t.front_level <- 0;
    t.l0.(t.hint0 land mask0)
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
   one scan and no allocation.  The overflow is pruned first: a
   postponed minimum it re-places may land in the wheel, which the scan
   then sees; what the scan re-places into the overflow is settled, so
   the minimum read afterwards needs no prune. *)
let refresh_front t =
  if not (settled t.front) then begin
    prune t t.overflow ~level:3;
    let w = wheel_min t in
    let o = t.overflow in
    if slot_is_empty o then t.front <- (if slot_is_empty w then t.none else slot_min w)
    else if slot_is_empty w || entry_before (slot_min o) (slot_min w) then begin
      t.front <- slot_min o;
      t.front_level <- 3
    end
    else t.front <- slot_min w
  end

(* The front entry; [fn] names the caller in the empty wheel's error. *)
let front t fn =
  refresh_front t;
  let e = t.front in
  if not (settled e) then invalid_arg (fn ^ ": empty wheel");
  e

let front_time t = (front t "Wheel.front_time").time

(* Mark the popped [e] fired and drop the front cache, which held it. *)
let fire t e =
  e.key <- fired;
  t.live <- t.live - 1;
  t.front <- t.none;
  e.payload

let take t =
  let e = front t "Wheel.take" in
  (match t.front_level with
   | 0 ->
     ignore (slot_pop t.l0.(e.q land mask0));
     t.c0 <- t.c0 - 1
   | 1 | 2 ->
     (* Bring the entry's quantum into the L0 window (cascades move
        it down), then take it off the front of its L0 slot. *)
     advance_to t e.q;
     let s = t.l0.(e.q land mask0) in
     prune t s ~level:0;
     ignore (slot_pop s);
     t.c0 <- t.c0 - 1
   | _ ->
     ignore (slot_pop t.overflow);
     (* Advance anyway so subsequent pushes place near the new now. *)
     advance_to t e.q);
  fire t e

let size t = t.live

let is_empty t = t.live = 0

(* ---- choice points over the front ---- *)

(* Insert [x], found at [loc], into the first [n] cells of the tie
   buffers, which are in seq order and stay so; returns [n + 1].  Run
   entries arrive in seq order and append; only heap and overflow
   entries can shift anything. *)
let add_tie t n (x : _ entry) loc =
  if n = Array.length t.ties then begin
    let cap = max 4 (2 * n) in
    let ties = Array.make cap (hole ()) and locs = Array.make cap 0 in
    Array.blit t.ties 0 ties 0 n;
    Array.blit t.locs 0 locs 0 n;
    t.ties <- ties;
    t.locs <- locs
  end;
  let i = ref n in
  while !i > 0 && t.ties.(!i - 1).seq > x.seq do
    t.ties.(!i) <- t.ties.(!i - 1);
    t.locs.(!i) <- t.locs.(!i - 1);
    decr i
  done;
  t.ties.(!i) <- x;
  t.locs.(!i) <- loc;
  n + 1

(* A tie's location: its index in [slot_remove]'s convention (a run
   index, or [lnot] a heap index), doubled, plus 1 in the overflow. *)
let tie_loc i ~ovf = (i lsl 1) lor ovf

let is_tie x ft = settled x && Time.compare x.time ft = 0

(* Add the ties at time [ft] in the heap subtree of [s] rooted at [i]:
   entries no later than [ft] form a subtree at the top of the heap. *)
let rec add_heap_ties t s ~ovf ft i n =
  if i < s.hlen && Time.compare s.heap.(i).time ft <= 0 then begin
    let x = s.heap.(i) in
    let n = if is_tie x ft then add_tie t n x (tie_loc (lnot i) ~ovf) else n in
    let n = add_heap_ties t s ~ovf ft ((2 * i) + 1) n in
    add_heap_ties t s ~ovf ft ((2 * i) + 2) n
  end
  else n

(* Add the ties at time [ft] in slot [s]: entries no later than [ft]
   are a prefix of the run.  A postponed entry still placed at [ft] is
   skipped: its new deadline is strictly later, so it is no tie. *)
let add_slot_ties t s ~ovf ft n =
  let n = ref n and i = ref s.rhead in
  while !i < s.rlen && Time.compare s.run.(!i).time ft <= 0 do
    let x = s.run.(!i) in
    if is_tie x ft then n := add_tie t !n x (tie_loc !i ~ovf);
    incr i
  done;
  add_heap_ties t s ~ovf ft 0 !n

(* The front's quantum is first brought into the L0 window, as [take]
   does for it: every live entry at the front's time then sits in that
   quantum's L0 slot or in the overflow.  Placement is a pure function
   of (quantum, windows), windows only advance at pops of the global
   minimum, and [advance_to] cascades exactly the slots a new window
   uncovers — so no live entry lingers at a level above its placement
   (the header argument: skipped slots hold only cancelled entries;
   postponed ones are re-placed before a scan moves past them). *)
let pop_choice t choose =
  let e = front t "Wheel.pop_choice" in
  advance_to t e.q;
  let s = t.l0.(e.q land mask0) in
  let n = add_slot_ties t s ~ovf:0 e.time 0 in
  let n = add_slot_ties t t.overflow ~ovf:1 e.time n in
  let k = if n = 1 then 0 else choose n in
  if k < 0 || k >= n then begin
    Array.fill t.ties 0 n (hole ());
    invalid_arg (Printf.sprintf "Wheel.pop_choice: choice %d out of %d front ties" k n)
  end;
  let x = t.ties.(k) and loc = t.locs.(k) in
  Array.fill t.ties 0 n (hole ());
  if loc land 1 = 0 then begin
    slot_remove s (loc asr 1);
    t.c0 <- t.c0 - 1
  end
  else slot_remove t.overflow (loc asr 1);
  fire t x
