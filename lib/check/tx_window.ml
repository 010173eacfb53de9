let size = 32

(* One (channel, link)'s ring: slot [k] holds the datagram
   [(slots.(3k), slots.(3k+1))] with [slots.(3k+2)] crossings; a zero
   count is an empty slot.  Slots fill in order from [next], so scanning
   back from the newest stops at the first empty one.  No seq of
   [top_stream], the stream inserted last, in the ring is above
   [top_seq], so that stream's next datagram skips the scan. *)
type ring = {
  slots : int array;
  mutable next : int;
  mutable top_stream : int;
  mutable top_seq : int;
}

type t = {
  mutable links : int;
  mutable rows : ring option array array;  (* by channel, then link; [||] = no data yet *)
}

let create ~links = { links; rows = [||] }

let clear t = t.rows <- [||]

let new_ring () =
  { slots = Array.make (3 * size) 0; next = 0; top_stream = -1; top_seq = max_int }

let row t chan link =
  let len = Array.length t.rows in
  if chan >= len then begin
    let grown = Array.make (max (chan + 1) (2 * len)) [||] in
    Array.blit t.rows 0 grown 0 len;
    t.rows <- grown
  end;
  let r = Array.unsafe_get t.rows chan in
  if link < Array.length r then r
  else begin
    t.links <- max t.links (link + 1);
    let grown = Array.make t.links None in
    Array.blit r 0 grown 0 (Array.length r);
    t.rows.(chan) <- grown;
    grown
  end

(* The slot of [(stream, seq)], scanning [i] slots back from [k];
   -1 when absent. *)
let rec find slots ~stream ~seq i k =
  if i = size then -1
  else
    let k = if k < 0 then k + size else k in
    if Array.unsafe_get slots ((3 * k) + 2) = 0 then -1
    else if
      Array.unsafe_get slots ((3 * k) + 1) = seq && Array.unsafe_get slots (3 * k) = stream
    then k
    else find slots ~stream ~seq (i + 1) (k - 1)

let insert ring ~stream ~seq =
  let k = ring.next in
  let slots = ring.slots in
  slots.(3 * k) <- stream;
  slots.((3 * k) + 1) <- seq;
  slots.((3 * k) + 2) <- 1;
  ring.next <- (if k + 1 = size then 0 else k + 1);
  if stream <> ring.top_stream then begin
    (* Another stream's turn: bound its seqs still in the ring. *)
    ring.top_stream <- stream;
    ring.top_seq <- seq;
    for j = 0 to size - 1 do
      if
        slots.((3 * j) + 2) > 0
        && slots.(3 * j) = stream
        && slots.((3 * j) + 1) > ring.top_seq
      then ring.top_seq <- slots.((3 * j) + 1)
    done
  end
  else if seq > ring.top_seq then ring.top_seq <- seq;
  1

let bump t ~chan ~link ~stream ~seq =
  let r = row t chan link in
  let ring =
    match Array.unsafe_get r link with
    | Some ring -> ring
    | None ->
      let ring = new_ring () in
      r.(link) <- Some ring;
      ring
  in
  if stream = ring.top_stream && seq > ring.top_seq then insert ring ~stream ~seq
  else
    match find ring.slots ~stream ~seq 0 (ring.next - 1) with
    | -1 -> insert ring ~stream ~seq
    | k ->
      let n = ring.slots.((3 * k) + 2) + 1 in
      ring.slots.((3 * k) + 2) <- n;
      n
