type t = {
  sim : Sim.t;
  name : string;
  category : string;
  on_expire : unit -> unit;
  mutable armed : Sim.handle option;
  mutable expiry : Time.t;  (* meaningful only while [armed] *)
  fire : unit -> unit;
      (* one callback for the timer's whole life: cancellation is
         exact, so it only ever runs for the armed event *)
}

let create ?(category = "timer") sim ~name ~on_expire =
  let rec t =
    { sim;
      name;
      category;
      on_expire;
      armed = None;
      expiry = Time.zero;
      fire =
        (fun () ->
          t.armed <- None;
          t.on_expire ()) }
  in
  t

let stop t =
  match t.armed with
  | None -> ()
  | Some handle ->
    Sim.cancel t.sim handle;
    t.armed <- None

(* The deadline is stored before it is scheduled, and the wheel entry
   is handed [t.expiry]: the float box is then shared by the timer and
   its entry.  A [let]-bound sum, once [Time.add] is inlined, would be
   boxed afresh at each of its two uses. *)
let start t duration =
  t.expiry <- Time.add (Sim.now t.sim) duration;
  match t.armed with
  | None -> t.armed <- Some (Sim.schedule_at ~category:t.category t.sim t.expiry t.fire)
  | Some handle ->
    let moved = Sim.postpone ~category:t.category t.sim handle t.expiry t.fire in
    if moved != handle then t.armed <- Some moved

let is_armed t = t.armed <> None

let expiry t =
  match t.armed with
  | None -> None
  | Some _ -> Some t.expiry

let remaining t =
  match t.armed with
  | None -> None
  | Some _ -> Some (Time.sub t.expiry (Sim.now t.sim))

let name t = t.name
