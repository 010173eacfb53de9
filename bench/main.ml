(* The scenario rows that bench/check_perf.py gates: a hand-scripted
   Figure 1 timed with the invariant monitor off, once with wire-check,
   lineage and capture all off (structural) and once with wire-check
   and capture on (wire_exact).  The first is the only timed run of the
   plain delivery path, a slowdown of which no perfbench workload
   shows (EXPERIMENTS.md, "One speed gate or two").  The paper's
   sections are `mmcast_sim paper`.

   Run:  dune exec bench/main.exe     (writes BENCH_perf.json) *)

open Mmcast

(* Fixed integer/float spin whose ns cost tracks single-core speed.
   Every throughput number in the report is paired with this
   calibration, so two runs from different machines compare through
   [events_per_s * calib_ns] — a machine-neutral product — instead of
   raw events/s.  bench/check_perf.py relies on this. *)
let calibrate_ns () =
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc +. float_of_int (!x land 0xff)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9

(* The figure-1 network under approach 3, a 100 Hz CBR stream from t=10
   to t=seconds-10, and R3 ping-ponging between L4 and L6 every 30 s —
   enough traffic that the run is dominated by the transmit/deliver
   path, with enough mobility to keep tunnels and prune state churning.
   Returns (events, wall_s, allocated_bytes, minor_collections).  It
   scripts Figure 1 by hand rather than through Scale.Runner on
   purpose: the monitor's cost would dilute a slowdown of the delivery
   path that only this gate catches. *)
let perf_scenario ~wire ~seconds =
  let spec =
    { Scenario.default_spec with
      Scenario.approach = Approach.tunnel_to_home_agent }
  in
  let scenario = Scenario.paper_figure1 spec in
  let sim = scenario.Scenario.sim in
  let net = scenario.Scenario.net in
  let group = Scenario.group in
  if wire then Net.Network.set_wire_check net true;
  let cap = if wire then Some (Obs.Capture.attach net) else None in
  ignore
    (Engine.Sim.schedule_at sim 5.0 (fun () ->
         Scenario.subscribe_receivers scenario group));
  let s = Scenario.host scenario "S" in
  let stop_t = seconds -. 10.0 in
  let rec tick () =
    if Engine.Time.compare (Engine.Sim.now sim) stop_t < 0 then begin
      Host_stack.send_data s ~group ~bytes:500;
      ignore (Engine.Sim.schedule_after sim 0.01 tick)
    end
  in
  ignore (Engine.Sim.schedule_at sim 10.0 tick);
  let r3 = Scenario.host scenario "R3" in
  let rec hop to_l6 () =
    Host_stack.move_to r3 (Scenario.link scenario (if to_l6 then "L6" else "L4"));
    if Engine.Time.compare (Engine.Sim.now sim) (seconds -. 30.0) < 0 then
      ignore (Engine.Sim.schedule_after sim 30.0 (hop (not to_l6)))
  in
  ignore (Engine.Sim.schedule_at sim 45.0 (hop true));
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  Scenario.run_until scenario seconds;
  let wall = Unix.gettimeofday () -. t0 in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let minor = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
  (match cap with Some c -> ignore (Obs.Capture.frames c) | None -> ());
  (Engine.Sim.events_executed sim, wall, alloc, minor)

let seconds = 120.0
let runs = 3

(* Best-of-[runs] wall clock after a warm-up; events and allocation are
   deterministic across repeats, only the wall time is noisy. *)
let scenario_row name ~wire =
  ignore (perf_scenario ~wire ~seconds:30.0);
  let best = ref infinity and last = ref (0, 0.0, 0.0, 0) in
  for _ = 1 to runs do
    let ((_, w, _, _) as r) = perf_scenario ~wire ~seconds in
    if w < !best then best := w;
    last := r
  done;
  let events, _, alloc, minor = !last in
  let events_per_s = float_of_int events /. !best in
  Printf.printf
    "  %-12s %8d events  %8.4f s  %9.0f ev/s  %10.0f alloc B/sim-s  %5.2f minor/sim-s\n"
    name events !best events_per_s (alloc /. seconds)
    (float_of_int minor /. seconds);
  Obs.Json.Obj
    [ ("name", Obs.Json.String name);
      ("events", Obs.Json.Int events);
      ("wall_s", Obs.Json.float !best);
      ("events_per_s", Obs.Json.float events_per_s);
      ("alloc_per_sim_s", Obs.Json.float (alloc /. seconds));
      ("minor_per_sim_s", Obs.Json.float (float_of_int minor /. seconds)) ]

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (no arguments; writes BENCH_perf.json)";
    exit 2
  end;
  let manifest = Obs.Manifest.create ~tool:"bench" () in
  let calib_ns = calibrate_ns () in
  Printf.printf "  %-44s %14.0f ns\n" "calibration spin (20M xorshift)" calib_ns;
  Printf.printf "  full figure-1 scenario, %g simulated s (best of %d):\n" seconds runs;
  let structural = scenario_row "structural" ~wire:false in
  let wire_exact = scenario_row "wire_exact" ~wire:true in
  let path = "BENCH_perf.json" in
  Obs.Json.write_file ~pretty:true ~path
    (Obs.Json.Obj
       [ ("schema", Obs.Json.String "mmcast-bench-perf/4");
         ("seed", Obs.Json.Int Scenario.default_spec.Scenario.seed);
         ("host_cores", Obs.Json.Int (Parallel.default_jobs ()));
         ( "calibration",
           Obs.Json.Obj
             [ ("spin_iters", Obs.Json.Int 20_000_000); ("ns", Obs.Json.float calib_ns) ] );
         ( "scenario",
           Obs.Json.Obj
             [ ( "workload",
                 Obs.Json.String "figure1 approach3 cbr-10ms handoff-30s (perf_scenario)" );
               ("seconds", Obs.Json.float seconds);
               ("runs", Obs.Json.Int runs);
               ("rows", Obs.Json.List [ structural; wire_exact ]) ] );
         ("manifest", Obs.Manifest.to_json manifest) ]);
  Printf.printf "  JSON report written to %s\n" path
