(* The handle doubles as the entry's lifecycle cell: cancellation flips
   a mutable flag reachable from both the caller and the heap entry, so
   the common schedule/fire cycle allocates one small record per event
   and never touches a hash table. *)

type status = Live | Cancelled | Fired

type handle = { mutable status : status }

type 'a entry = {
  time : Engine.Time.t;
  seq : int;
  payload : 'a;
  cell : handle;
}

type 'a t = {
  mutable heap : 'a entry array option;
  (* [heap] is [Some arr] once the first push sized the array; [len] is
     the number of slots in use.  Cancelled entries stay in the array
     until they reach the top (lazy deletion). *)
  mutable len : int;
  mutable seq : int;
  mutable live : int;
}

let create () = { heap = None; len = 0; seq = 0; live = 0 }

let entry_before a b =
  match Engine.Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow t entry =
  match t.heap with
  | None ->
    let arr = Array.make 16 entry in
    t.heap <- Some arr;
    arr
  | Some arr when t.len = Array.length arr ->
    let bigger = Array.make (2 * Array.length arr) entry in
    Array.blit arr 0 bigger 0 t.len;
    t.heap <- Some bigger;
    bigger
  | Some arr -> arr

let swap arr i j =
  let tmp = arr.(i) in
  arr.(i) <- arr.(j);
  arr.(j) <- tmp

let rec sift_up arr i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before arr.(i) arr.(parent) then begin
      swap arr i parent;
      sift_up arr parent
    end
  end

let rec sift_down arr len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < len && entry_before arr.(l) arr.(i) then l else i in
  let smallest = if r < len && entry_before arr.(r) arr.(smallest) then r else smallest in
  if smallest <> i then begin
    swap arr i smallest;
    sift_down arr len smallest
  end

let push t time payload =
  let cell = { status = Live } in
  let entry = { time; seq = t.seq; payload; cell } in
  t.seq <- t.seq + 1;
  let arr = grow t entry in
  arr.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up arr (t.len - 1);
  t.live <- t.live + 1;
  cell

let is_cancelled _t handle = handle.status = Cancelled

let cancel t handle =
  (* Cancelling a fired or already-cancelled event is a no-op; [live]
     only tracks events still in the heap. *)
  if handle.status = Live then begin
    handle.status <- Cancelled;
    t.live <- t.live - 1
  end

let pop_entry t =
  match t.heap with
  | None -> None
  | Some arr ->
    if t.len = 0 then None
    else begin
      let top = arr.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        arr.(0) <- arr.(t.len);
        (* Alias the vacated slot to a live entry so the heap array
           never retains a fired event's payload closure. *)
        arr.(t.len) <- arr.(0);
        sift_down arr t.len 0
      end
      else t.heap <- None;
      Some top
    end

(* Drop cancelled entries from the top so peek/pop see a live event.
   Their [live] decrement already happened at cancel time. *)
let rec drop_cancelled t =
  match t.heap with
  | None -> ()
  | Some arr ->
    if t.len > 0 && arr.(0).cell.status = Cancelled then begin
      ignore (pop_entry t);
      drop_cancelled t
    end

let peek_time t =
  drop_cancelled t;
  match t.heap with
  | None -> None
  | Some arr -> if t.len = 0 then None else Some arr.(0).time

let pop t =
  drop_cancelled t;
  match pop_entry t with
  | None -> None
  | Some e ->
    e.cell.status <- Fired;
    t.live <- t.live - 1;
    Some (e.time, e.payload)

(* Remove the entry at heap index [i] (not necessarily the root),
   restoring the heap invariant and aliasing the vacated slot like
   [pop_entry]. *)
let remove_at t arr i =
  t.len <- t.len - 1;
  if t.len = 0 then t.heap <- None
  else begin
    if i < t.len then begin
      arr.(i) <- arr.(t.len);
      arr.(t.len) <- arr.(i);
      if i > 0 && entry_before arr.(i) arr.((i - 1) / 2) then sift_up arr i
      else sift_down arr t.len i
    end
    else arr.(t.len) <- arr.(0)
  end

(* Live entries sharing the root's timestamp are not contiguous in a
   heap, so the choice-point accessors scan the whole array.  They only
   run on the explored schedule path, never on the default one. *)
let front_count t =
  drop_cancelled t;
  match t.heap with
  | None -> 0
  | Some arr ->
    if t.len = 0 then 0
    else begin
      let front = arr.(0) in
      let n = ref 0 in
      for i = 0 to t.len - 1 do
        let x = arr.(i) in
        if x.cell.status = Live && Engine.Time.compare x.time front.time = 0 then
          incr n
      done;
      !n
    end

let pop_kth t k =
  drop_cancelled t;
  match t.heap with
  | None -> None
  | Some arr ->
    if t.len = 0 then None
    else if k = 0 then pop t
    else begin
      let front = arr.(0) in
      let cands = ref [] in
      for i = 0 to t.len - 1 do
        let x = arr.(i) in
        if x.cell.status = Live && Engine.Time.compare x.time front.time = 0 then
          cands := (x, i) :: !cands
      done;
      let ties = Array.of_list !cands in
      Array.sort
        (fun ((a : _ entry), _) ((b : _ entry), _) -> compare a.seq b.seq)
        ties;
      if k < 0 || k >= Array.length ties then
        invalid_arg
          (Printf.sprintf "Event_queue.pop_kth: index %d out of %d front ties"
             k (Array.length ties));
      let x, i = ties.(k) in
      remove_at t arr i;
      x.cell.status <- Fired;
      t.live <- t.live - 1;
      Some (x.time, x.payload)
    end

let size t = t.live

let is_empty t = t.live = 0
