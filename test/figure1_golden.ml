(* The canonical Figure-1 run of each approach whose trace digest
   [test_golden] pins; [test_engine] also holds [Engine.Trace.digest]
   to its reference rendering of the records [on_trace] sees. *)

open Mmcast

let canonical_trace ?(wire_check = false) ?(capture = false) ?(lineage = false) ?on_trace
    approach =
  let spec = { Scenario.default_spec with Scenario.approach } in
  let l = Scenario.figure1 in
  let scenario =
    Scenario.build ?on_trace spec ~links:l.Scenario.lay_links ~routers:l.Scenario.lay_routers
      ~hosts:l.Scenario.lay_hosts
  in
  let sim = scenario.Scenario.sim in
  if wire_check then Net.Network.set_wire_check scenario.Scenario.net true;
  let collector =
    if lineage then begin
      let c = Engine.Span.create () in
      Engine.Sim.set_lineage sim (Some c);
      Some c
    end
    else None
  in
  let cap =
    if capture then Some (Obs.Capture.attach scenario.Scenario.net) else None
  in
  ignore
    (Engine.Sim.schedule_at sim 5.0 (fun () ->
         Scenario.subscribe_receivers scenario Scenario.group));
  let s = Scenario.host scenario "S" in
  let rec tick () =
    if Engine.Time.compare (Engine.Sim.now sim) 110.0 < 0 then begin
      Host_stack.send_data s ~group:Scenario.group ~bytes:500;
      ignore (Engine.Sim.schedule_after sim 0.5 tick)
    end
  in
  ignore (Engine.Sim.schedule_at sim 30.0 tick);
  let r3 = Scenario.host scenario "R3" in
  ignore
    (Engine.Sim.schedule_at sim 60.0 (fun () ->
         Host_stack.move_to r3 (Scenario.link scenario "L6")));
  (* R3 also sources a short burst from the foreign link, so the send
     path (local vs reverse-tunnel) shows up in the trace and the four
     approaches digest pairwise distinct. *)
  let rec r3_tick () =
    if Engine.Time.compare (Engine.Sim.now sim) 90.0 < 0 then begin
      Host_stack.send_data r3 ~group:Scenario.group ~bytes:200;
      ignore (Engine.Sim.schedule_after sim 2.0 r3_tick)
    end
  in
  ignore (Engine.Sim.schedule_at sim 70.0 r3_tick);
  Scenario.run_until scenario 120.0;
  (match cap with
   | Some c ->
     if Obs.Capture.frames c = 0 then
       Alcotest.fail "capture attached but recorded no frames"
   | None -> ());
  (match collector with
   | Some c ->
     if Engine.Span.span_count c = 0 then
       Alcotest.fail "lineage collection on but no spans recorded"
   | None -> ());
  Net.Network.trace scenario.Scenario.net

