(* The benchmark driver: one workload, one seed, one process.

     driver.exe --workload NAME --seed N --seconds S --trace 0|1
                [--pins FILE] [--emit-pins]

   Untraced (--trace 0): time the set-up over repeated builds, run one
   discarded warm-up iteration that is verified against the pinned
   outputs (or, on another seed, becomes the reference), then run timed
   iterations back to back for S seconds — a closed loop: each starts
   when the previous one finishes.  Its timings are scaled by the host's
   speed (see the calibration section).  Traced (--trace 1): one profiled
   run with spans around every call into a layer, plus the untraced
   comparison runs the per-layer ratios need.  The last line of
   standard output is the JSON result. *)

open Mmcast
open Perfbench

let pinned_seed = 42
let out_dir = "perfbench_out"
let now = Unix.gettimeofday

type summary = {
  cells : Cell.t list;  (** kept reachable for the live-heap reading *)
  lines : string list;  (** fingerprint, see {!Cell.fingerprint} *)
  violations : int;
  sim_s : float;
  schedules : int;
  distinct : int;  (** distinct trace digests among the schedules *)
}

type workload = {
  name : string;
  monitor : bool;
  lineage : bool;
  scripts : int -> Cell.script list;
      (** what [setup_s] times: what one iteration builds, or on
          [explore-pct] one schedule per approach; its head is the traced
          run's capture probe *)
  staged : int -> Cell.opts -> summary;
      (** the workload through [Cell]: the warm-up and every traced run *)
  timed : int -> float * string list * int;
      (** one timed iteration: simulated seconds, fingerprint lines,
          violations *)
}

let default_opts w = { Cell.monitor = w.monitor; lineage = w.lineage; capture = false; profile = false }

let summarize cells =
  { cells;
    lines = List.concat_map Cell.fingerprint cells;
    violations = List.fold_left (fun acc c -> acc + Cell.violations c) 0 cells;
    sim_s = List.fold_left (fun acc c -> acc +. c.Cell.until) 0.0 cells;
    schedules = 0;
    distinct = 0 }

let run_scripts opts scripts =
  summarize
    (List.map
       (fun s ->
         let c = Cell.build opts s in
         Cell.run c;
         c)
       scripts)

(* -- workloads -- *)

let fig1 ~name ~wire ~lineage =
  let scripts seed = List.map (fun approach -> Cell.Fig1 { approach; seed; wire }) Approach.all in
  let staged seed opts = run_scripts opts (scripts seed) in
  let timed seed =
    let s = staged seed { Cell.monitor = false; lineage; capture = false; profile = false } in
    (s.sim_s, s.lines, s.violations)
  in
  { name; monitor = false; lineage; scripts; staged; timed }

(* The generated cells keep the topology of the pinned seed and take
   the workload seed as the simulation seed: across ten generator seeds
   the Waxman-100 cell's run time spread by a fifth, more than any
   regression bound could absorb. *)
let generated ~gen seed =
  let d = Tracer.span "scale.gen" gen in
  { d with Scale.Desc.d_seed = seed }

let scale_approach = Approach.tunnel_to_home_agent

let scale_waxman =
  let desc = generated ~gen:(fun () -> Scale.Gen.scenario ~model:`Waxman ~routers:100 ~seed:pinned_seed ()) in
  let scripts seed =
    [ Cell.Generated { desc = desc seed; approach = scale_approach; sustain = None; decider = None } ]
  in
  let timed seed =
    let d = desc seed in
    let o = Scale.Runner.run d scale_approach in
    let violations = List.length o.Scale.Runner.out_violations in
    ( d.Scale.Desc.d_duration,
      [ Cell.sum_line ~label:(Cell.label_of scale_approach) ~sent:o.Scale.Runner.out_sent
          ~delivered:o.Scale.Runner.out_delivered ~duplicates:o.Scale.Runner.out_duplicates
          ~violations ],
      violations )
  in
  { name = "scale-waxman-r100"; monitor = true; lineage = false; scripts;
    staged = (fun seed opts -> run_scripts opts (scripts seed)); timed }

(* Schedules per approach, and the explorer's default oracle bound. *)
let explore_budget = 25
let explore_sustain = 10.0

let explore_line approach ~runs ~violations =
  Printf.sprintf "%s explored=%d violations=%d" (Cell.label_of approach) runs violations

let explore_pct =
  let desc = generated ~gen:(fun () -> Scale.Gen.clean ~seed:pinned_seed ()) in
  (* One schedule per approach, with the PCT decider and delay
     exploration each timed schedule installs. *)
  let scripts seed =
    let d = desc seed in
    List.map
      (fun approach ->
        let decider = Explore.Strategy.next (Explore.Strategy.pct ()) ~seed ~run_index:0 in
        Cell.Generated { desc = d; approach; sustain = Some explore_sustain; decider })
      Approach.all
  in
  (* The explorer's loop, replayed through [Cell] so the traced run can
     see inside it: PCT deciders, one run each, digests fed back. *)
  let staged seed opts =
    let d = desc seed in
    let per_approach =
      List.map
        (fun approach ->
          let strategy = Explore.Strategy.pct () in
          let seen = Hashtbl.create 64 in
          let cells = ref [] in
          for run_index = 0 to explore_budget - 1 do
            match Explore.Strategy.next strategy ~seed ~run_index with
            | None -> failwith "explore-pct: PCT reported an exhausted search space"
            | Some decider ->
              let c =
                Cell.build opts
                  (Cell.Generated { desc = d; approach; sustain = Some explore_sustain; decider = Some decider })
              in
              Cell.run c;
              let fresh = not (Hashtbl.mem seen c.Cell.digest) in
              Hashtbl.replace seen c.Cell.digest ();
              Explore.Strategy.note_result strategy ~distinct:fresh;
              cells := c :: !cells
          done;
          let cells = List.rev !cells in
          let violations = List.fold_left (fun acc c -> acc + Cell.violations c) 0 cells in
          (cells, explore_line approach ~runs:(List.length cells) ~violations, Hashtbl.length seen))
        Approach.all
    in
    let cells = List.concat_map (fun (c, _, _) -> c) per_approach in
    { (summarize cells) with
      lines = List.map (fun (_, l, _) -> l) per_approach;
      schedules = List.length cells;
      distinct = List.fold_left (fun acc (_, _, n) -> acc + n) 0 per_approach }
  in
  let timed seed =
    let d = desc seed in
    let outcomes =
      List.map
        (fun approach ->
          Explore.Explorer.explore ~budget:explore_budget ~sustain:explore_sustain
            ~delay_slots:Cell.explore_delay_slots ~delay_max:Cell.explore_delay_max ~seed
            ~stop_on_violation:false ~strategy:(Explore.Strategy.pct ()) d approach)
        Approach.all
    in
    let runs = List.fold_left (fun acc o -> acc + o.Explore.Explorer.ex_runs) 0 outcomes in
    let violating o = if Option.is_some o.Explore.Explorer.ex_violation then 1 else 0 in
    ( float_of_int runs *. d.Scale.Desc.d_duration,
      List.map
        (fun o ->
          explore_line o.Explore.Explorer.ex_approach ~runs:o.Explore.Explorer.ex_runs
            ~violations:(violating o))
        outcomes,
      List.fold_left (fun acc o -> acc + violating o) 0 outcomes )
  in
  { name = "explore-pct"; monitor = true; lineage = false; scripts; staged; timed }

let workloads =
  [ fig1 ~name:"fig1-wire" ~wire:true ~lineage:false;
    fig1 ~name:"fig1-lineage" ~wire:false ~lineage:true;
    scale_waxman;
    explore_pct ]

(* -- measurement helpers -- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* -- host-speed calibration --

   The host is shared with other tenants, and its speed swings by up to
   a factor of two in phases of tens of seconds that slow every
   workload alike.  So each timed iteration and each set-up batch is
   scaled by the speed of a fixed kernel, timed right before and right
   after it: hash-table updates over 64k keys plus short-lived
   allocation.  Among
   the kernels tried, it tracked the simulator's slow phases best: the
   spread of 20-sample medians fell from 0.38 to 0.10 on Figure 1.
   Times are thus in seconds of a reference host that runs the kernel
   in [kernel_reference_s].  The kernel is the benchmark's own code,
   so no change to the simulator can move it. *)
let kernel_reference_s = 0.030

let kernel () =
  let t0 = now () in
  let table = Hashtbl.create 1024 in
  let x = ref 12345 and recent = ref [] in
  for i = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0xffff in
    (match Hashtbl.find_opt table k with
    | Some v -> Hashtbl.replace table k (v + i)
    | None -> Hashtbl.add table k i);
    recent := (k, i) :: (if i land 255 = 0 then [] else !recent)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length table, !recent));
  now () -. t0

(* The kernel runs under GC settings of its own, so that a change to
   the simulator which tunes the runtime (a larger minor heap, another
   space overhead) cannot speed it up or slow it down; the simulator's
   settings are restored afterwards.  It also runs right after a
   compaction, so the heap it works against holds live data only, not
   the garbage a measured run left behind. *)
let kernel_minor_heap_words = 262_144
let kernel_space_overhead = 120

let kernel_samples = ref []

let sample_kernel () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = kernel_minor_heap_words; space_overhead = kernel_space_overhead };
  Gc.compact ();
  let k = kernel () in
  Gc.set saved;
  kernel_samples := k :: !kernel_samples;
  k

let last_kernel = ref nan

(* [f ()], its host seconds, and how much faster than the reference
   this host ran meanwhile, judged by the kernel samples on either
   side.  Each sample serves the measurements before and after it.  A
   time is scaled by multiplying it by the speed, a rate by dividing. *)
let scaled f =
  if Float.is_nan !last_kernel then last_kernel := sample_kernel ();
  let t0 = now () in
  let result = f () in
  let wall = now () -. t0 in
  let k = sample_kernel () in
  let speed = kernel_reference_s /. ((!last_kernel +. k) /. 2.0) in
  last_kernel := k;
  (result, wall, speed)

(* Set-up is short (under a millisecond for Figure 1), so it is read in
   batches sized to last about 80 ms: eleven before the warm-up, then
   one after each timed iteration, so that the batches sample the
   whole run.  Each batch yields its unscaled seconds per set-up and
   the host speed; [setup_s] is the median of the scaled figures. *)
let setup_batches = 11

let setup_sampler w seed =
  let once () =
    List.iter (fun s -> ignore (Sys.opaque_identity (Cell.build (default_opts w) s))) (w.scripts seed)
  in
  once ();
  Gc.compact ();
  let t0 = now () in
  once ();
  let per_batch = max 1 (int_of_float (0.08 /. (now () -. t0))) in
  let samples = ref [] in
  let batch () =
    let (), seconds, speed =
      scaled (fun () ->
          for _ = 1 to per_batch do
            once ()
          done)
    in
    samples := (seconds /. float_of_int per_batch, speed) :: !samples
  in
  for _ = 1 to setup_batches do
    batch ()
  done;
  (batch, samples, per_batch)

let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* The heap the workload's simulations retain: live bytes with them
   reachable minus live bytes once they are dropped. *)
let staged_with_live w seed =
  let kept = ref (Some (w.staged seed (default_opts w))) in
  let with_sims = live_bytes () in
  let s = Option.get !kept in
  let summary = { s with cells = [] } in
  kept := None;
  let without = live_bytes () in
  (summary, (with_sims -. without) /. 1e6)

type tally = { mutable attempted : int; mutable failed : int }

let record tally what problems =
  tally.attempted <- tally.attempted + 1;
  if problems <> [] then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "FAILED %s:\n" what;
    List.iter (Printf.eprintf "  %s\n") problems;
    flush stderr
  end

(* The warm-up's fingerprint must equal the pins on the pinned seed;
   on any other seed it becomes the reference the timed iterations
   must reproduce. *)
let reference_of tally ~pins (s : summary) =
  match pins with
  | Some expected ->
    record tally "warm-up vs pinned outputs"
      (Verify.check_exact ~expected ~actual:s.lines @ Verify.check_violations s.violations);
    expected
  | None ->
    record tally "warm-up" (Verify.check_violations s.violations);
    s.lines

let metric name value unit = (name, Obs.Json.Obj [ ("value", Obs.Json.float value); ("unit", Obs.Json.String unit) ])

let print_result tally metrics =
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool (tally.failed = 0));
            ("attempted", Obs.Json.Int tally.attempted);
            ("failed", Obs.Json.Int tally.failed);
            ("metrics", Obs.Json.Obj metrics) ]))

(* -- untraced run: the end-to-end metrics -- *)

let min_iterations = 3

(* One timed iteration, verified against [reference]: its unscaled
   rate and the host speed, or [None] if it raised. *)
let timed_iteration tally w seed ~reference index =
  match scaled (fun () -> w.timed seed) with
  | (sim_s, lines, violations), wall, speed ->
    let raw = sim_s /. wall in
    record tally
      (Printf.sprintf "iteration %d" index)
      (Verify.check_reported ~reference ~actual:lines @ Verify.check_violations violations);
    Printf.printf
      "iteration %d: sim_s_per_s %.4f s/s (%.1f simulated s in %.4f s, %.4f s/s at host speed %.3f)\n%!"
      index (raw /. speed) sim_s wall raw speed;
    Some (raw, speed)
  | exception e ->
    record tally (Printf.sprintf "iteration %d" index) [ Printexc.to_string e ];
    None

let scaled_rate (raw, speed) = raw /. speed
let scaled_time (raw, speed) = raw *. speed

let timed_run w seed seconds pins =
  let tally = { attempted = 0; failed = 0 } in
  let setup_batch, setup_samples, per_batch = setup_sampler w seed in
  Gc.compact ();
  let warm, live_mb = staged_with_live w seed in
  let reference = reference_of tally ~pins warm in
  Printf.printf "warm-up: %d fingerprint lines, live_mb %.3f MB\n%!" (List.length warm.lines) live_mb;
  let rates = ref [] in
  let t_start = now () in
  let iteration = ref 0 in
  while
    now () -. t_start < seconds
    || (List.length !rates < min_iterations && !iteration < 2 * min_iterations)
  do
    incr iteration;
    Option.iter (fun r -> rates := r :: !rates) (timed_iteration tally w seed ~reference !iteration);
    setup_batch ()
  done;
  if !rates = [] then begin
    prerr_endline "no iteration completed";
    exit 1
  end;
  let sim_s_per_s = median (List.map scaled_rate !rates) in
  let setup_s = median (List.map scaled_time !setup_samples) in
  Printf.printf
    "%s seed %d:\n\
    \  sim_s_per_s %.4f s/s (median of %d iterations; unscaled %.4f s/s, host speed %.3f)\n\
    \  setup_s %.6f s (median of %d batches of %d set-ups; unscaled %.6f s)\n\
    \  live_mb %.4f MB\n\
    \  calibration kernel: median %.4f s over %d samples\n"
    w.name seed sim_s_per_s (List.length !rates) (median (List.map fst !rates))
    (median (List.map snd !rates)) setup_s (List.length !setup_samples) per_batch
    (median (List.map fst !setup_samples)) live_mb (median !kernel_samples) (List.length !kernel_samples);
  print_result tally
    [ metric "sim_s_per_s" sim_s_per_s "s/s"; metric "setup_s" setup_s "s"; metric "live_mb" live_mb "MB" ]

(* -- traced run: the per-layer metrics -- *)

(* A run's figures, reduced so its simulations can be dropped before
   the next comparison run starts. *)
type measured = {
  wall : float;
  alloc_mb : float;
  minor : int;
  major : int;
  sim_s : float;
  packets : int;
  spans : int;
  marks : int;
  lines : string list;
  violations : int;
}

(* Runs [w.staged] under [opts]; [inspect] reads the simulations before
   they are dropped. *)
let measure_with w seed opts inspect =
  Gc.compact ();
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  let s = w.staged seed opts in
  let wall = now () -. t0 in
  let q1 = Gc.quick_stat () in
  let words q = q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words in
  let over f = List.fold_left (fun acc c -> acc + f c) 0 s.cells in
  let lineage f = over (fun c -> Option.fold ~none:0 ~some:f c.Cell.lineage) in
  let m =
    { wall;
      alloc_mb = (words q1 -. words q0) *. float_of_int (Sys.word_size / 8) /. 1e6;
      minor = q1.Gc.minor_collections - q0.Gc.minor_collections;
      major = q1.Gc.major_collections - q0.Gc.major_collections;
      sim_s = s.sim_s;
      packets = over (fun c -> (Net.Network.total_stats c.Cell.scenario.Scenario.net).Net.Network.packets);
      spans = lineage Obs.Lineage.span_count;
      marks = lineage Obs.Lineage.mark_count;
      lines = s.lines;
      violations = s.violations }
  in
  (m, inspect s)

(* Which layer each engine profile category belongs to. *)
let layer_of_category = function
  | "net" | "link" -> Some "net.handler_s"
  | "pim" -> Some "pimdm.timer_s"
  | "mld" -> Some "mld.timer_s"
  | "mipv6" -> Some "mipv6.timer_s"
  | "monitor" -> Some "check.sample_s"
  | "traffic" | "node" -> Some "mmcast.handler_s"
  | "fault" | "faults" -> Some "faults.handler_s"
  | "obs" | "mobility" | "timer" | "other" -> Some "engine.other_s"
  | _ -> None

let handler_rows =
  [ "net.handler_s"; "pimdm.timer_s"; "mld.timer_s"; "mipv6.timer_s"; "check.sample_s";
    "mmcast.handler_s"; "faults.handler_s"; "engine.other_s" ]

(* Profiled handler seconds plus measured dispatch equal the run_until
   wall by construction (see [Cell.clock]), up to float rounding.  A
   larger residual means a handler ran inside another and its time was
   counted twice, or a category's seconds went to no layer row. *)
let sum_tolerance = 1e-6

(* Which end-to-end metric each layer metric should move, and where. *)
let moves =
  let fig1_wire = "sim_s_per_s @ fig1-wire" in
  let setup = "setup_s @ all; sim_s_per_s @ explore-pct" in
  let monitor = "sim_s_per_s @ scale-waxman-r100, explore-pct; no change @ fig1-*" in
  let scale_rate = "sim_s_per_s @ scale-waxman-r100" in
  let lineage = "sim_s_per_s, live_mb @ fig1-lineage" in
  let gc = "sim_s_per_s, live_mb @ all" in
  [ ("engine.events", fig1_wire); ("engine.dispatch_s", fig1_wire);
    ("engine.trace_records", "live_mb @ scale-waxman-r100; sim_s_per_s @ explore-pct");
    ("engine.trace_digest_s", "live_mb @ scale-waxman-r100; sim_s_per_s @ explore-pct");
    ("net.handler_s", fig1_wire); ("net.packets", fig1_wire); ("net.bytes", fig1_wire);
    ("net.us_per_packet", fig1_wire); ("net.drops", fig1_wire);
    ("ipv6.frames", fig1_wire); ("ipv6.encode_ns", fig1_wire); ("ipv6.decode_ns", fig1_wire);
    ("pimdm.timer_s", "live_mb, check.ms_per_sample @ scale-waxman-r100");
    ("pimdm.sg_entries", "live_mb, check.ms_per_sample @ scale-waxman-r100");
    ("pimdm.sg_entries_max_router", "live_mb, check.ms_per_sample @ scale-waxman-r100");
    ("mld.timer_s", scale_rate); ("mipv6.timer_s", scale_rate); ("mipv6.bindings", scale_rate);
    ("mmcast.build_s", setup); ("mmcast.traffic_s", setup); ("scale.gen_s", setup);
    ("scale.validate_s", setup); ("faults.install_s", setup); ("check.attach_s", setup);
    ("check.sample_s", monitor); ("check.samples", monitor); ("check.ms_per_sample", monitor);
    ("check.overhead_s", monitor); ("check.alloc_mb", monitor);
    ("explore.schedules", "sim_s_per_s @ explore-pct"); ("explore.distinct_ratio", "sim_s_per_s @ explore-pct");
    ("obs.spans", lineage); ("obs.marks", lineage); ("obs.spans_per_packet", lineage);
    ("obs.overhead_s", lineage); ("obs.alloc_mb", lineage);
    ("gc.alloc_mb_per_sim_s", gc); ("gc.minor_collections", gc); ("gc.major_collections", gc);
    ("raw.sim_s_per_s", "checks a sim_s_per_s verdict unscaled"); ("raw.setup_s", "checks a setup_s verdict unscaled");
    ("calib.kernel_s", "nothing: a change to lib/ must not move it") ]

(* Timed iterations in the traced run, for the unscaled rows. *)
let raw_iterations = 3

let frames_for_codec = 20_000
let codec_passes = 5

(* Per-frame encode and decode cost over the frames [Obs.Capture]
   recorded, timed after the run: median of [codec_passes] passes. *)
let codec_costs (cap : Obs.Capture.t) =
  match Obs.Pcapng.read (Obs.Capture.contents cap) with
  | Error e -> failwith ("capture unreadable: " ^ e)
  | Ok capture ->
    let frames =
      Array.of_list (List.filteri (fun i _ -> i < frames_for_codec) capture.Obs.Pcapng.frames)
      |> Array.map (fun f -> f.Obs.Pcapng.frame_data)
    in
    let packets = Array.map Ipv6.Codec.decode_exn frames in
    let n = float_of_int (max 1 (Array.length frames)) in
    let per_frame f =
      median
        (List.init codec_passes (fun _ ->
             let t0 = now () in
             f ();
             (now () -. t0) /. n *. 1e9))
    in
    let encode_ns =
      Tracer.span "ipv6.encode" (fun () ->
          per_frame (fun () -> Array.iter (fun p -> ignore (Sys.opaque_identity (Ipv6.Codec.encode p))) packets))
    in
    let decode_ns =
      Tracer.span "ipv6.decode" (fun () ->
          per_frame (fun () -> Array.iter (fun b -> ignore (Sys.opaque_identity (Ipv6.Codec.decode b))) frames))
    in
    (Obs.Capture.frames cap, encode_ns, decode_ns)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let row name value unit note = (name, value, unit, note)

(* The per-layer rows read from the profiled run's simulations, and the
   sum-to-wall problems, if any. *)
let profiled_rows (s : summary) =
  let cells = s.cells in
  let sum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 cells) in
  let sumf f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let categories = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (cat, pr) ->
          let e, t = Option.value (Hashtbl.find_opt categories cat) ~default:(0, 0.0) in
          Hashtbl.replace categories cat (e + pr.Engine.Sim.cat_events, t +. pr.Engine.Sim.cat_seconds))
        (Cell.profile c))
    cells;
  let layer_seconds r =
    Hashtbl.fold (fun cat (_, t) acc -> if layer_of_category cat = Some r then acc +. t else acc) categories 0.0
  in
  let unmapped =
    Hashtbl.fold (fun cat (_, t) acc -> if layer_of_category cat = None then (cat, t) :: acc else acc) categories []
  in
  let run_until_s = sumf (fun c -> c.Cell.run_wall) in
  let clocks = List.filter_map (fun c -> c.Cell.clock) cells in
  let dispatch_s = List.fold_left (fun acc k -> acc +. k.Cell.gaps) 0.0 clocks in
  let calls = List.fold_left (fun acc k -> acc + k.Cell.calls) 0 clocks in
  let still_inside = List.length (List.filter (fun k -> k.Cell.inside) clocks) in
  let profiled_events = Hashtbl.fold (fun _ (e, _) acc -> acc + e) categories 0 in
  let handlers_s = List.fold_left (fun acc r -> acc +. layer_seconds r) 0.0 handler_rows in
  let residual = Float.abs (handlers_s +. dispatch_s -. run_until_s) /. run_until_s in
  Printf.printf "  profile categories:";
  List.iter
    (fun (cat, (e, t)) -> Printf.printf " %s=%d ev/%.4f s" cat e t)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) categories []));
  Printf.printf
    "\n  sum-to-wall: handlers %.4f s + dispatch %.4f s = %.4f s vs run_until %.4f s (residual %.1e, tolerance %.0e)\n\
    \  clock pairing: %d calls for %d profiled events, %d run(s) ended inside a handler\n"
    handlers_s dispatch_s (handlers_s +. dispatch_s) run_until_s residual sum_tolerance calls profiled_events
    still_inside;
  let problems =
    List.map (fun (c, t) -> Printf.sprintf "profile category %s (%.4f s) belongs to no layer" c t) unmapped
    @ (if calls = 2 * profiled_events && still_inside = 0 then []
       else
         [ Printf.sprintf "profiling clock called %d times for %d profiled events (%d run(s) ended inside a handler)"
             calls profiled_events still_inside ])
    @
    if residual <= sum_tolerance then []
    else
      [ Printf.sprintf "handlers + dispatch off the run_until wall by %.1e (tolerance %.0e)" residual sum_tolerance ]
  in
  let net_totals = List.map (fun c -> Net.Network.total_stats c.Cell.scenario.Scenario.net) cells in
  let packets = float_of_int (List.fold_left (fun acc t -> acc + t.Net.Network.packets) 0 net_totals) in
  let routers = List.concat_map (fun c -> List.map snd c.Cell.scenario.Scenario.routers) cells in
  let over_routers f = List.fold_left (fun acc r -> acc + f r) 0 routers in
  let sg r = List.length (Pimdm.Pim_router.entries (Router_stack.pim r)) in
  let samples = sum (fun c -> Option.fold ~none:0 ~some:Check.Monitor.samples c.Cell.monitor) in
  let share t = Printf.sprintf "%.1f%% of engine.run_until_s" (100.0 *. ratio t run_until_s) in
  let rows =
    [ row "engine.run_until_s" run_until_s "s" "base: profiled run_until wall";
      row "engine.events" (sum (fun c -> Engine.Sim.events_executed c.Cell.scenario.Scenario.sim)) "count" "";
      row "engine.dispatch_s" dispatch_s "s" (share dispatch_s) ]
    @ List.map (fun r -> row r (layer_seconds r) "s" (share (layer_seconds r))) handler_rows
    @ [ row "engine.trace_records" (sum (fun c -> Engine.Trace.count (Net.Network.trace c.Cell.scenario.Scenario.net))) "count" "";
        row "engine.trace_digest_s" (Tracer.total "engine.trace_digest") "s" "Trace.digest after each run";
        row "net.packets" packets "count" "";
        row "net.bytes" (float_of_int (List.fold_left (fun acc t -> acc + t.Net.Network.bytes) 0 net_totals)) "count" "";
        row "net.us_per_packet" (1e6 *. ratio (layer_seconds "net.handler_s") packets) "us" "base: net.handler_s / net.packets";
        row "net.drops" (sum (fun c -> Net.Network.drops c.Cell.scenario.Scenario.net)) "count" "";
        row "pimdm.sg_entries" (float_of_int (over_routers sg)) "count" "(S,G) entries at the end, all routers";
        row "pimdm.sg_entries_max_router" (float_of_int (List.fold_left (fun acc r -> max acc (sg r)) 0 routers)) "count" "";
        row "mipv6.bindings" (float_of_int (over_routers (fun r -> List.length (Router_stack.bindings r)))) "count" "binding-cache entries at the end";
        row "mmcast.build_s" (Tracer.total "mmcast.build") "s" "Scenario.build / paper_figure1";
        row "mmcast.traffic_s" (Tracer.total "mmcast.traffic") "s" "scheduling the script's traffic and events";
        row "scale.gen_s" (Tracer.total "scale.gen") "s" "";
        row "scale.validate_s" (Tracer.total "scale.validate") "s" "";
        row "faults.install_s" (Tracer.total "faults.install") "s" "";
        row "check.attach_s" (Tracer.total "check.attach") "s" "";
        row "check.samples" samples "count" "";
        row "check.ms_per_sample" (1e3 *. ratio (layer_seconds "check.sample_s") samples) "ms" "base: check.sample_s / check.samples";
        row "explore.schedules" (float_of_int s.schedules) "count" "";
        row "explore.distinct_ratio" (ratio (float_of_int s.distinct) (float_of_int s.schedules)) "ratio" "base: distinct digests / explore.schedules" ]
  in
  (rows, problems)

let traced_run w seed pins =
  let tally = { attempted = 0; failed = 0 } in
  let base = default_opts w in
  let reference = reference_of tally ~pins (w.staged seed base) in
  (* Drop counts exist only where lineage is on; a run that toggles it
     is compared on the other lines. *)
  let verify ?(lineage = w.lineage) what (m : measured) =
    let keep l = if lineage = w.lineage then l else List.filter (fun x -> not (Verify.is_drops x)) l in
    record tally what
      (Verify.check_exact ~expected:(keep reference) ~actual:(keep m.lines) @ Verify.check_violations m.violations)
  in
  Printf.printf "per-layer table: %s, seed %d (traced run; end-to-end figures come from untraced runs)\n" w.name seed;
  (* The profiled run, with the benchmark's spans around each layer call. *)
  Tracer.set_enabled true;
  let p, (p_rows, sum_problems) =
    Tracer.span ("workload:" ^ w.name) (fun () ->
        measure_with w seed { base with Cell.profile = true } profiled_rows)
  in
  Tracer.set_enabled false;
  verify "profiled run" p;
  record tally "sum-to-wall check" sum_problems;
  (* Untraced comparison runs, memoized by options: the workload as is,
     and with the monitor and the lineage collector toggled. *)
  let runs = ref [] in
  let run opts =
    match List.assoc_opt opts !runs with
    | Some m -> m
    | None ->
      let m, () = measure_with w seed opts ignore in
      verify ~lineage:opts.Cell.lineage
        (Printf.sprintf "comparison run (monitor %b, lineage %b)" opts.Cell.monitor opts.Cell.lineage) m;
      runs := (opts, m) :: !runs;
      m
  in
  let plain = run base in
  let mon_on = run { base with Cell.monitor = true } in
  let mon_off = run { base with Cell.monitor = false } in
  let lin_on = run { base with Cell.monitor = false; lineage = true } in
  let lin_off = run { base with Cell.monitor = false; lineage = false } in
  (* Codec probe: the workload's first script with a capture attached. *)
  let probe =
    Cell.build { base with Cell.monitor = false; lineage = false; capture = true } (List.hd (w.scripts seed))
  in
  Cell.run probe;
  Tracer.set_enabled true;
  let frames, encode_ns, decode_ns = codec_costs (Option.get probe.Cell.capture) in
  Tracer.set_enabled false;
  (* The unscaled end-to-end figures beside the scaled ones, and the
     calibration kernel's own time: a verdict read from the scaled
     metrics can be checked against the raw ones, and a change that
     moves the kernel shows here. *)
  let setup_batch, setup_samples, _ = setup_sampler w seed in
  let rates =
    List.filter_map
      (fun i ->
        let r = timed_iteration tally w seed ~reference i in
        setup_batch ();
        r)
      (List.init raw_iterations (fun i -> i + 1))
  in
  let median_or_zero = function [] -> 0.0 | xs -> median xs in
  let delta_row name ~on value unit what =
    row name value unit
      (Printf.sprintf "%s share = %s / %s-on %.3f %s = %.1f%%" what name what on unit (100.0 *. ratio value on))
  in
  let rows =
    p_rows
    @ [ row "ipv6.frames" (float_of_int frames) "count" "frames captured from the first script";
        row "ipv6.encode_ns" encode_ns "ns" (Printf.sprintf "per frame, median of %d passes" codec_passes);
        row "ipv6.decode_ns" decode_ns "ns" (Printf.sprintf "per frame, median of %d passes" codec_passes);
        delta_row "check.overhead_s" ~on:mon_on.wall (mon_on.wall -. mon_off.wall) "s" "monitor";
        delta_row "check.alloc_mb" ~on:mon_on.alloc_mb (mon_on.alloc_mb -. mon_off.alloc_mb) "MB" "monitor";
        row "obs.spans" (float_of_int lin_on.spans) "count" "lineage run, monitor off";
        row "obs.marks" (float_of_int lin_on.marks) "count" "";
        row "obs.spans_per_packet" (ratio (float_of_int lin_on.spans) (float_of_int lin_on.packets)) "ratio"
          "base: obs.spans / packets of the lineage run";
        delta_row "obs.overhead_s" ~on:lin_on.wall (lin_on.wall -. lin_off.wall) "s" "lineage";
        delta_row "obs.alloc_mb" ~on:lin_on.alloc_mb (lin_on.alloc_mb -. lin_off.alloc_mb) "MB" "lineage";
        row "gc.alloc_mb_per_sim_s" (ratio plain.alloc_mb plain.sim_s) "MB/sim-s" "untraced run, whole workload";
        row "gc.minor_collections" (float_of_int plain.minor) "count" "untraced run";
        row "gc.major_collections" (float_of_int plain.major) "count" "untraced run";
        row "trace.overhead_ratio" (ratio p.wall plain.wall) "ratio"
          (Printf.sprintf "base: traced wall %.3f s / untraced wall %.3f s" p.wall plain.wall);
        row "raw.sim_s_per_s" (median_or_zero (List.map fst rates)) "s/s"
          (Printf.sprintf "unscaled, median of %d iterations; scaled %.4f" (List.length rates)
             (median_or_zero (List.map scaled_rate rates)));
        row "raw.setup_s" (median_or_zero (List.map fst !setup_samples)) "s"
          (Printf.sprintf "unscaled, median of %d batches; scaled %.6f" (List.length !setup_samples)
             (median_or_zero (List.map scaled_time !setup_samples)));
        row "calib.kernel_s" (median_or_zero !kernel_samples) "s"
          (Printf.sprintf "median of %d samples; host speed = %.3f s / calib.kernel_s" (List.length !kernel_samples)
             kernel_reference_s) ]
  in
  Printf.printf "  %-28s %16s %-9s %-62s %s\n" "metric" "value" "unit" "ratio (base)" "should move";
  List.iter
    (fun (name, value, unit, note) ->
      Printf.printf "  %-28s %16.6f %-9s %-62s %s\n" name value unit note
        (Option.value (List.assoc_opt name moves) ~default:""))
    rows;
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-s%d.json" w.name seed) in
  Tracer.write path;
  Printf.printf "  spans: %d written to %s\n" (List.length (Tracer.spans ())) path;
  print_result tally (List.map (fun (name, value, unit, _) -> metric name value unit) rows)

(* -- command line -- *)

let usage () =
  prerr_endline
    "usage: driver.exe --workload NAME --seed N --seconds S --trace 0|1 [--pins FILE] [--emit-pins]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--emit-pins" :: rest -> parse (("emit-pins", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_arg k =
    match Option.bind (get k) int_of_string_opt with
    | Some v -> v
    | None ->
      Printf.eprintf "missing or malformed --%s\n" k;
      usage ()
  in
  let w =
    match get "workload" with
    | None -> usage ()
    | Some name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s\n" name;
        usage ())
  in
  let seed = int_arg "seed" in
  if get "emit-pins" <> None then begin
    print_string (Verify.render_pins w.name (w.staged seed (default_opts w)).lines);
    exit 0
  end;
  let seconds = int_arg "seconds" in
  let trace = int_arg "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let pins =
    if seed <> pinned_seed then None
    else
      match get "pins" with
      | None ->
        prerr_endline "the pinned seed needs --pins FILE";
        exit 2
      | Some path -> (
        let text = In_channel.with_open_bin path In_channel.input_all in
        match List.assoc_opt w.name (Verify.parse_pins text) with
        | Some lines -> Some lines
        | None ->
          Printf.eprintf "%s has no pins for %s\n" path w.name;
          exit 2)
  in
  if trace = 1 then traced_run w seed pins else timed_run w seed (float_of_int seconds) pins
