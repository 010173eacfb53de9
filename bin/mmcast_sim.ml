(* Command-line front end to the simulator.

   mmcast_sim run --approach 2 --moves L6,L1 --duration 300
   mmcast_sim tree --approach 1 --at 100
   mmcast_sim compare [--no-unsolicited]
   mmcast_sim sweep --trials 8 --tquery 125,60,30,10
   mmcast_sim trace --approach 1 --until 80 --category pim
   mmcast_sim paper fig2 table1 --jobs 4 *)

open Cmdliner
open Mmcast

let group = Scenario.group

(* ---- exit status ---- *)

(* Besides cmdliner's codes (0 success, 124 a bad command line, 125 an
   internal error), a run whose verdict is a failure exits 1: that is
   the run's result, which a script must be able to tell from a usage
   error. *)
let exit_failed = 1

let exits =
  Cmd.Exit.info exit_failed
    ~doc:
      "on a failed verdict: an invariant violation, a seeded violation that was \
       not found or did not replay, or input data that does not load."
  :: Cmd.Exit.defaults

let fail_run command msg =
  Format.print_flush ();
  flush stdout;
  Printf.eprintf "mmcast_sim %s: %s\n" command msg;
  exit exit_failed

let positive_finite x = Float.is_finite x && x > 0.0
let non_negative_finite x = Float.is_finite x && x >= 0.0

(* ---- shared options ---- *)

let approach_arg =
  let doc = "Delivery approach 1-4 (paper's Table 1 numbering)." in
  Arg.(value & opt int 1 & info [ "a"; "approach" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let unsolicited_arg =
  let doc = "Disable unsolicited MLD Reports (RFC-default hosts)." in
  Arg.(value & flag & info [ "no-unsolicited" ] ~doc)

let tquery_arg =
  let doc = "MLD Query Interval in seconds." in
  Arg.(value & opt float 125.0 & info [ "tquery" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for sweep-shaped commands such as $(b,scale) and \
     $(b,sweep) (default: all cores).  The scale matrix schedules its \
     heaviest cells first, so large router counts overlap instead of \
     trailing the batch.  Results are byte-identical whatever $(docv) \
     is; 1 forces the sequential path."
  in
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ---- observability options ---- *)

let telemetry_arg =
  let doc =
    "Write a telemetry JSON time-series and a run manifest into $(docv) (created if \
     missing)."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"DIR" ~doc)

let capture_arg =
  let doc = "Write a pcapng capture of every transmitted frame to $(docv)." in
  Arg.(value & opt (some string) None & info [ "capture" ] ~docv:"FILE" ~doc)

let sample_interval = 1.0 (* telemetry sampling period, simulated seconds *)

let manifest_of_spec ~command spec =
  let m = Obs.Manifest.create ~tool:"mmcast_sim" () in
  Obs.Manifest.add_string m "command" command;
  Obs.Manifest.add_int m "seed" spec.Scenario.seed;
  Obs.Manifest.add_int m "approach" (Approach.number spec.Scenario.approach);
  Obs.Manifest.add_string m "approach_name" (Approach.name spec.Scenario.approach);
  Obs.Manifest.add_string m "topology" "paper_figure1";
  Obs.Manifest.add_float m "mld_query_interval_s"
    spec.Scenario.mld.Mld.Mld_config.query_interval;
  Obs.Manifest.add_int m "mld_unsolicited_reports"
    spec.Scenario.mld.Mld.Mld_config.unsolicited_report_count;
  m

(* --telemetry on a paper run: a registry sampled every
   [sample_interval] until [until], and a lineage collector. *)
let attach_telemetry scenario metrics ~until =
  let reg = Obs.Registry.create scenario.Scenario.sim in
  let tele = Telemetry.attach reg scenario metrics in
  Obs.Registry.run_sampler reg ~every:sample_interval ~until;
  let approach = scenario.Scenario.spec.Scenario.approach in
  let lin = Obs.Lineage.create ~approach:(Approach.name approach) () in
  Obs.Lineage.attach lin scenario.Scenario.sim;
  (reg, tele, lin)

(* The lineage, its catapult export and its handover breakdowns, at
   [path "lineage"], [path "catapult"] and [path "handover"]. *)
let save_lineage lin ~path =
  Obs.Lineage.save lin ~path:(path "lineage");
  Obs.Export.save_catapult lin ~path:(path "catapult");
  Obs.Json.write_file ~pretty:true ~path:(path "handover") (Obs.Export.handovers_json lin)

let tquery_too_small tquery =
  tquery < Mld.Mld_config.default.Mld.Mld_config.query_response_interval

let tquery_error =
  `Error
    (false, "TQuery must not be below TRespDel = 10 s (paper, section 4.4 footnote)")

let spec_of ~approach ~seed ~no_unsolicited ~tquery =
  if approach < 1 || approach > 4 then `Error (false, "approach must be 1-4")
  else if tquery_too_small tquery then tquery_error
  else
    let mld =
      { (Mld.Mld_config.with_query_interval tquery Mld.Mld_config.default) with
        unsolicited_report_count = (if no_unsolicited then 0 else 2) }
    in
    `Ok
      { Scenario.default_spec with
        Scenario.approach = Approach.of_number approach;
        seed;
        mld }

(* ---- run ---- *)

module Desc = Scale.Desc
module Paper = Scale.Paper

let parse_moves s =
  if String.equal s "" then []
  else
    String.split_on_char ',' s
    |> List.mapi (fun i link ->
           Desc.Move { at = 60.0 +. (60.0 *. float_of_int i); host = "R3"; link })

let parse_flap s =
  match String.split_on_char ':' s with
  | [ link; down; up ] -> (
    match (float_of_string_opt down, float_of_string_opt up) with
    | Some down_at, Some up_at -> Ok (Desc.Flap { link; down_at; up_at })
    | _ -> Error s)
  | _ -> Error s

(* A paper run whose monitor reports a violation is a failed verdict. *)
let paper_verdict command f =
  try f () with Paper.Violation msg -> fail_run command msg

(* Run a Figure-1 descriptor built from the command line.  One the run
   cannot carry out as given — an unknown link, a move or a flap after
   the end, a flap that ends before it starts — is a usage error. *)
let run_paper ~command ~spec d measure =
  match Desc.validate d with
  | Error e -> `Error (false, e)
  | Ok () ->
    paper_verdict command (fun () -> Paper.run ~spec d spec.Scenario.approach measure);
    `Ok ()

let run_cmd approach seed no_unsolicited tquery moves duration rate bytes loss flaps
    telemetry capture =
  match spec_of ~approach ~seed ~no_unsolicited ~tquery with
  | `Error _ as e -> e
  | `Ok _ when not (positive_finite duration) ->
    `Error (false, "duration must be a positive number of seconds")
  | `Ok _ when not (positive_finite rate) ->
    `Error (false, "rate must be a positive number of datagrams per second")
  | `Ok _ when bytes < Ipv6.Codec.data_min_bytes ->
    `Error
      ( false,
        Printf.sprintf "bytes must be at least %d (the datagram's stream/seq header)"
          Ipv6.Codec.data_min_bytes )
  | `Ok _ when bytes > Ipv6.Codec.data_max_bytes ->
    `Error
      ( false,
        Printf.sprintf
          "bytes must be at most %d (the largest datagram that still fits a tunnel)"
          Ipv6.Codec.data_max_bytes )
  | `Ok _ when not (loss >= 0.0 && loss <= 1.0) ->
    `Error (false, "loss must be within [0,1]")
  | `Ok _ when List.exists (fun f -> Result.is_error (parse_flap f)) flaps ->
    `Error (false, "flap must be LINK:DOWN:UP, e.g. L3:80:100")
  | `Ok spec ->
    let flaps = List.filter_map (fun f -> Result.to_option (parse_flap f)) flaps in
    let ambient =
      if loss > 0.0 then
        List.map
          (fun (link, _) -> Desc.Loss { link; rate = loss; from_t = 0.0; until = duration })
          Scenario.figure1.Scenario.lay_links
      else []
    in
    let d =
      Paper.figure1 ~seed ~name:"run" ~until:(duration -. 10.0) ~duration
        ~faults:(ambient @ flaps) (parse_moves moves)
    in
    let d =
      { d with
        Desc.d_traffic =
          { d.Desc.d_traffic with Desc.tr_interval = 1.0 /. rate; tr_bytes = bytes } }
    in
    run_paper ~command:"run" ~spec d (fun scenario metrics ->
        let cap = Option.map (fun _ -> Obs.Capture.attach scenario.Scenario.net) capture in
        let tele =
          Option.map
            (fun dir ->
              Obs.Json.ensure_dir dir;
              (dir, attach_telemetry scenario metrics ~until:duration))
            telemetry
        in
        let recovery =
          if flaps = [] then None
          else Some (Paper.watch_flaps d ~hosts:[ "R1"; "R2"; "R3" ] scenario)
        in
        fun () ->
          let r3 = Scenario.host scenario "R3" in
          Printf.printf "%s after %.0f s (%s):\n\n"
            (Approach.name spec.Scenario.approach)
            duration
            (if no_unsolicited then "RFC-default MLD" else "unsolicited Reports");
          print_endline
            (Tree.render scenario
               ~source:(Host_stack.home_address (Scenario.host scenario "S"))
               ~group);
          Printf.printf "\nreceivers:\n";
          List.iter
            (fun name ->
              let h = Scenario.host scenario name in
              Printf.printf "  %-3s rx=%d dup=%d\n" name
                (Host_stack.received_count h ~group)
                (Host_stack.duplicate_count h ~group))
            [ "R1"; "R2"; "R3" ];
          (match Metrics.join_delay r3 ~group with
           | Some d -> Printf.printf "\nR3 join delay after last handoff: %.2f s\n" d
           | None -> ());
          Printf.printf "\ntraffic:\n";
          Metrics.pp_summary Format.std_formatter metrics;
          if loss > 0.0 then
            Printf.printf "injected loss: %d deliveries suppressed\n"
              (Net.Network.losses scenario.Scenario.net);
          (match recovery with
           | None -> ()
           | Some r ->
             Printf.printf "\nrecovery after link repair:\n";
             Format.printf "%a@." Recovery.pp_report (Recovery.report r));
          let c = Metrics.control_counts metrics in
          Printf.printf
            "control messages: %d hellos, %d joins, %d prunes, %d grafts, %d asserts, %d \
             queries, %d reports, %d binding updates\n"
            c.Metrics.hellos c.Metrics.joins c.Metrics.prunes c.Metrics.grafts
            c.Metrics.asserts c.Metrics.queries c.Metrics.reports
            c.Metrics.binding_updates;
          (match (cap, capture) with
           | Some cap, Some file ->
             Obs.Capture.to_file cap file;
             Printf.printf "capture: %d frame(s) -> %s\n" (Obs.Capture.frames cap) file
           | _, _ -> ());
          match tele with
          | None -> ()
          | Some (dir, (reg, t, lin)) ->
            (match Metrics.join_delay r3 ~group with
             | Some d -> Telemetry.record_join_delay t d
             | None -> ());
            let path = Filename.concat dir "telemetry.json" in
            Obs.Json.write_file ~pretty:true ~path
              (Obs.Registry.to_json
                 ~meta:
                   [ ("command", Obs.Json.String "run");
                     ("approach", Obs.Json.Int approach);
                     ("seed", Obs.Json.Int seed) ]
                 reg);
            let m = manifest_of_spec ~command:"run" spec in
            Obs.Manifest.add_float m "duration_s" duration;
            Obs.Manifest.add_float m "rate_hz" rate;
            Obs.Manifest.add_string m "moves" moves;
            Obs.Manifest.add_float m "sample_interval_s" sample_interval;
            Obs.Manifest.add_output m ~kind:"telemetry" path;
            Option.iter (fun f -> Obs.Manifest.add_output m ~kind:"capture" f) capture;
            let lineage_path kind = Filename.concat dir (kind ^ ".json") in
            save_lineage lin ~path:lineage_path;
            List.iter
              (fun kind -> Obs.Manifest.add_output m ~kind (lineage_path kind))
              [ "lineage"; "catapult"; "handover" ];
            Printf.printf "lineage: %d span(s), %d mark(s) -> %s\n"
              (Obs.Lineage.span_count lin) (Obs.Lineage.mark_count lin)
              (lineage_path "lineage");
            (match Obs.Export.handover_breakdowns lin with
             | [] -> ()
             | hbs ->
               Printf.printf "handover latency breakdown:\n";
               List.iter (Format.printf "%a" Obs.Export.pp_breakdown) hbs;
               Format.print_flush ());
            Obs.Manifest.write m ~path:(Filename.concat dir "manifest.json");
            Printf.printf "telemetry: %d sample(s) -> %s\n" (Obs.Registry.samples reg) path)

let run_term =
  let moves =
    let doc =
      "Comma-separated links R3 visits (one handoff per minute starting at t=60), e.g. \
       L6,L1,L4."
    in
    Arg.(value & opt string "L6" & info [ "moves" ] ~docv:"LINKS" ~doc)
  in
  let duration =
    let doc = "Simulated seconds." in
    Arg.(value & opt float 300.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let rate =
    let doc = "Sender datagrams per second." in
    Arg.(value & opt float 2.0 & info [ "rate" ] ~docv:"HZ" ~doc)
  in
  let bytes =
    let doc = "Datagram payload bytes." in
    Arg.(value & opt int 500 & info [ "bytes" ] ~docv:"B" ~doc)
  in
  let loss =
    let doc = "Loss probability injected on every link (failure testing)." in
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc)
  in
  let flaps =
    let doc =
      "Flap a link: down at DOWN, back up at UP (simulated seconds), e.g. L3:80:100.  \
       Repeatable.  Prints time-to-reconverge per receiver after each repair."
    in
    Arg.(value & opt_all string [] & info [ "flap" ] ~docv:"LINK:DOWN:UP" ~doc)
  in
  Term.(
    ret
      (const run_cmd $ approach_arg $ seed_arg $ unsolicited_arg $ tquery_arg $ moves
      $ duration $ rate $ bytes $ loss $ flaps $ telemetry_arg $ capture_arg))

(* ---- tree ---- *)

let tree_cmd approach seed no_unsolicited tquery at =
  match spec_of ~approach ~seed ~no_unsolicited ~tquery with
  | `Error _ as e -> e
  | `Ok _ when not (positive_finite at) ->
    `Error (false, "at must be a positive number of seconds")
  | `Ok spec ->
    run_paper ~command:"tree" ~spec
      (Paper.figure1 ~seed ~name:"tree" ~until:at ~duration:at [])
      (fun scenario _ () ->
        print_endline
          (Tree.render scenario
             ~source:(Host_stack.home_address (Scenario.host scenario "S"))
             ~group))

let tree_term =
  let at =
    let doc = "Snapshot time in simulated seconds." in
    Arg.(value & opt float 100.0 & info [ "at" ] ~docv:"S" ~doc)
  in
  Term.(ret (const tree_cmd $ approach_arg $ seed_arg $ unsolicited_arg $ tquery_arg $ at))

(* ---- compare ---- *)

let phase_name = function
  | `Receiver -> "receiver"
  | `Sender -> "sender"

let compare_path dir kind approach phase =
  Filename.concat dir
    (Printf.sprintf "%s_approach%d_%s.json" kind (Approach.number approach) (phase_name phase))

(* Table 1 for one approach with a registry and a lineage per phase,
   each written as its own document, so parallel approach workers never
   share mutable state. *)
let compare_with_telemetry ~seed ~spec dir approach =
  let attached = ref [] in
  let inspect phase scenario metrics =
    let until = (Paper.phase phase).Desc.d_duration in
    attached := (phase, attach_telemetry scenario metrics ~until) :: !attached
  in
  let row = Paper.table1_row ~spec ~inspect approach in
  List.iter
    (fun (phase, (reg, tele, lin)) ->
      if phase = `Receiver then begin
        Option.iter (Telemetry.record_join_delay tele) row.Paper.join_delay_s;
        Telemetry.record_leave_delay tele row.Paper.leave_delay_s
      end;
      let stem kind = compare_path dir kind approach phase in
      Obs.Json.write_file ~pretty:true ~path:(stem "telemetry")
        (Obs.Registry.to_json
           ~meta:
             [ ("command", Obs.Json.String "compare");
               ("approach", Obs.Json.Int (Approach.number approach));
               ("approach_name", Obs.Json.String (Approach.name approach));
               ("phase", Obs.Json.String (phase_name phase));
               ("seed", Obs.Json.Int seed) ]
           reg);
      save_lineage lin ~path:stem)
    (List.rev !attached);
  row

let row_json (r : Paper.row) =
  Obs.Json.Obj
    [ ("approach", Obs.Json.Int (Approach.number r.Paper.approach));
      ("approach_name", Obs.Json.String (Approach.name r.Paper.approach));
      ("join_delay_s", Obs.Json.opt Obs.Json.float r.Paper.join_delay_s);
      ("leave_delay_s", Obs.Json.float r.Paper.leave_delay_s);
      ("wasted_bytes_old_link", Obs.Json.Int r.Paper.wasted_bytes_old_link);
      ("tunnel_overhead_bytes", Obs.Json.Int r.Paper.tunnel_overhead_bytes);
      ("signalling_bytes", Obs.Json.Int r.Paper.signalling_bytes);
      ("receiver_stretch", Obs.Json.float r.Paper.receiver_stretch);
      ("receiver_lost", Obs.Json.Int r.Paper.receiver_lost);
      ("duplicates", Obs.Json.Int r.Paper.duplicates);
      ("ha_load", Obs.Json.Int r.Paper.ha_load);
      ("mh_load", Obs.Json.Int r.Paper.mh_load);
      ("routers_load", Obs.Json.Int r.Paper.routers_load);
      ("sender_asserts", Obs.Json.Int r.Paper.sender_asserts);
      ("sender_flood_bytes", Obs.Json.Int r.Paper.sender_flood_bytes);
      ("sender_sg_states", Obs.Json.Int r.Paper.sender_sg_states);
      ("sender_stretch", Obs.Json.float r.Paper.sender_stretch) ]

let compare_cmd seed no_unsolicited tquery jobs telemetry =
  match spec_of ~approach:1 ~seed ~no_unsolicited ~tquery with
  | `Error _ as e -> e
  | `Ok _ when jobs < 1 -> `Error (false, "jobs must be at least 1")
  | `Ok spec ->
    let rows =
      paper_verdict "compare" (fun () ->
          match telemetry with
          | None -> Paper.table1 ~spec ~jobs ()
          | Some dir ->
            Obs.Json.ensure_dir dir;
            Parallel.map ~jobs (compare_with_telemetry ~seed ~spec dir) Approach.all)
    in
    Paper.pp_table Format.std_formatter rows;
    (match telemetry with
     | None -> ()
     | Some dir ->
       let table_path = Filename.concat dir "table1.json" in
       Obs.Json.write_file ~pretty:true ~path:table_path
         (Obs.Json.Obj
            [ ("schema", Obs.Json.String "mmcast-table1/1");
              ("seed", Obs.Json.Int seed);
              ("rows", Obs.Json.List (List.map row_json rows)) ]);
       let m = manifest_of_spec ~command:"compare" spec in
       Obs.Manifest.add_int m "jobs" jobs;
       Obs.Manifest.add_float m "sample_interval_s" sample_interval;
       Obs.Manifest.add_float m "receiver_move_time_s" Paper.receiver_move_time;
       Obs.Manifest.add_float m "sender_move_time_s" Paper.sender_move_time;
       Obs.Manifest.add_output m ~kind:"table" table_path;
       List.iter
         (fun r ->
           List.iter
             (fun phase ->
               List.iter
                 (fun kind ->
                   Obs.Manifest.add_output m ~kind
                     (compare_path dir kind r.Paper.approach phase))
                 [ "telemetry"; "lineage"; "catapult"; "handover" ])
             [ `Receiver; `Sender ])
         rows;
       Obs.Manifest.write m ~path:(Filename.concat dir "manifest.json");
       Printf.printf "\ntelemetry: %d document(s) -> %s\n"
         ((8 * List.length rows) + 1)
         dir);
    `Ok ()

let compare_term =
  Term.(
    ret
      (const compare_cmd $ seed_arg $ unsolicited_arg $ tquery_arg $ jobs_arg
      $ telemetry_arg))

(* ---- sweep ---- *)

let sweep_row_json (r : Paper.sweep_row) =
  Obs.Json.Obj
    [ ("tquery_s", Obs.Json.float r.Paper.tquery_s);
      ("trials", Obs.Json.Int r.Paper.trials);
      ("join_mean_s", Obs.Json.float r.Paper.join_mean_s);
      ("join_min_s", Obs.Json.float r.Paper.join_min_s);
      ("join_max_s", Obs.Json.float r.Paper.join_max_s);
      ("leave_mean_s", Obs.Json.float r.Paper.leave_mean_s);
      ("wasted_mean_bytes", Obs.Json.float r.Paper.wasted_mean_bytes);
      ("mld_bytes_per_s", Obs.Json.float r.Paper.mld_bytes_per_s) ]

let sweep_cmd seed trials no_unsolicited values jobs telemetry =
  if values = [] then `Error (false, "no TQuery values")
  else if List.exists tquery_too_small values then tquery_error
  else if trials < 1 then `Error (false, "trials must be at least 1")
  else if jobs < 1 then `Error (false, "jobs must be at least 1")
  else begin
    let rows =
      paper_verdict "sweep" (fun () ->
          Paper.timer_sweep ~base_seed:seed ~trials
            ~unsolicited:(not no_unsolicited) ~tquery_values:values ~jobs ())
    in
    Sections.pp_sweep rows;
    (match telemetry with
     | None -> ()
     | Some dir ->
       Obs.Json.ensure_dir dir;
       let path = Filename.concat dir "sweep.json" in
       Obs.Json.write_file ~pretty:true ~path
         (Obs.Json.Obj
            [ ("schema", Obs.Json.String "mmcast-sweep/1");
              ("seed", Obs.Json.Int seed);
              ("trials", Obs.Json.Int trials);
              ("unsolicited", Obs.Json.Bool (not no_unsolicited));
              ("rows", Obs.Json.List (List.map sweep_row_json rows)) ]);
       let m = Obs.Manifest.create ~tool:"mmcast_sim" () in
       Obs.Manifest.add_string m "command" "sweep";
       Obs.Manifest.add_int m "seed" seed;
       Obs.Manifest.add_int m "trials" trials;
       Obs.Manifest.add m "tquery_values"
         (Obs.Json.List (List.map Obs.Json.float values));
       Obs.Manifest.add_string m "topology" "paper_figure1";
       Obs.Manifest.add_int m "jobs" jobs;
       Obs.Manifest.add_output m ~kind:"sweep" path;
       Obs.Manifest.write m ~path:(Filename.concat dir "manifest.json");
       Printf.printf "\nsweep telemetry -> %s\n" path);
    `Ok ()
  end

let sweep_term =
  let trials =
    let doc = "Handoff trials per TQuery value." in
    Arg.(value & opt int 8 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let tqueries =
    let doc = "Comma-separated TQuery values (seconds)." in
    Arg.(
      value
      & opt (list float) [ 125.0; 60.0; 30.0; 10.0 ]
      & info [ "tquery" ] ~docv:"S,S,.." ~doc)
  in
  Term.(
    ret
      (const sweep_cmd $ seed_arg $ trials $ unsolicited_arg $ tqueries $ jobs_arg
      $ telemetry_arg))

(* ---- trace ---- *)

let trace_cmd approach seed no_unsolicited tquery until category =
  match spec_of ~approach ~seed ~no_unsolicited ~tquery with
  | `Error _ as e -> e
  | `Ok _ when not (positive_finite until) ->
    `Error (false, "until must be a positive number of seconds")
  | `Ok spec ->
    (* R3's handoff to L6 at 60 s, if the run gets that far. *)
    let moves =
      if until >= 60.0 then [ Desc.Move { at = 60.0; host = "R3"; link = "L6" } ] else []
    in
    (* The trace keeps no records: print each as it is written. *)
    let on_trace (r : Engine.Trace.record) =
      match category with
      | Some c when not (String.equal c r.Engine.Trace.category) -> ()
      | _ -> Format.printf "%a@." Engine.Trace.pp_record r
    in
    let d = Paper.figure1 ~seed ~name:"trace" ~until ~duration:until moves in
    match Desc.validate d with
    | Error e -> `Error (false, e)
    | Ok () ->
      paper_verdict "trace" (fun () ->
          Paper.check_verdict d (Scale.Runner.run ~spec ~on_trace d spec.Scenario.approach));
      `Ok ()

let trace_term =
  let until =
    let doc = "Run until this simulated time." in
    Arg.(value & opt float 80.0 & info [ "until" ] ~docv:"S" ~doc)
  in
  let category =
    let doc = "Only this trace category (mld, pim, mipv6, node, link, fault)." in
    Arg.(value & opt (some string) None & info [ "category" ] ~docv:"CAT" ~doc)
  in
  Term.(
    ret
      (const trace_cmd $ approach_arg $ seed_arg $ unsolicited_arg $ tquery_arg $ until
      $ category))

(* ---- check ---- *)

let print_violations rows =
  List.iter
    (fun row ->
      List.iter
        (fun (o : Scale.Runner.outcome) ->
          List.iter
            (fun v ->
              Format.printf "@.%s, approach %d:@.%a@." row.Scale.Suite.r_name
                (Approach.number o.Scale.Runner.out_approach)
                Check.Monitor.pp_violation v)
            o.Scale.Runner.out_violations)
        row.Scale.Suite.r_outcomes)
    rows

(* Shrink every violating soak run into a replayable repro bundle.  The
   oracle keeps the run's own convergence bound, so the minimum fails
   for the same reason the soak did. *)
let write_soak_repros rows ~dir =
  List.iter
    (fun row ->
      List.iter
        (fun (o : Scale.Runner.outcome) ->
          if o.Scale.Runner.out_violations <> [] then begin
            let desc = Scale.Suite.desc_of row.Scale.Suite.r_cell in
            let desc =
              { desc with
                Scale.Desc.d_name =
                  Printf.sprintf "%s-a%d" desc.Scale.Desc.d_name
                    (Approach.number o.Scale.Runner.out_approach) }
            in
            let sustain = o.Scale.Runner.out_bound in
            match Scale.Shrink.minimize ~sustain desc o.Scale.Runner.out_approach with
            | None ->
              Printf.printf "%s: violation did not recur under the shrinker\n"
                desc.Scale.Desc.d_name
            | Some r ->
              let path = Scale.Repro.write (Scale.Repro.of_shrink r ~sustain) ~dir in
              Printf.printf "minimal repro -> %s\n" path
          end)
        row.Scale.Suite.r_outcomes)
    rows

let check_cmd approach seed schedules jobs telemetry =
  if approach < 0 || approach > 4 then
    `Error (false, "approach must be 1-4, or 0 for all four")
  else if schedules < 1 then `Error (false, "no runs selected")
  else begin
    let cells = List.init schedules (fun i -> Scale.Suite.Soak { seed = seed + i }) in
    let rows =
      if approach = 0 then Scale.Suite.run ~jobs cells
      else begin
        let a = Approach.of_number approach in
        List.map2
          (fun cell o -> Scale.Suite.row cell [ o ])
          cells
          (Parallel.map ~jobs
             (fun cell -> Scale.Runner.run (Scale.Suite.desc_of cell) a)
             cells)
      end
    in
    Format.printf "%a" Scale.Suite.pp_table rows;
    print_violations rows;
    let total = Scale.Suite.violation_total rows in
    let runs = List.concat_map (fun row -> row.Scale.Suite.r_outcomes) rows in
    Printf.printf
      "\n%d run(s) of %.0f s each under randomized recoverable faults; convergence \
       bound %.1f s; %d violation(s)\n"
      (List.length runs) (Scale.Gen.soak ~seed).Scale.Desc.d_duration
      (List.hd runs).Scale.Runner.out_bound total;
    (match telemetry with
     | None -> ()
     | Some dir ->
       Obs.Json.ensure_dir dir;
       let path = Filename.concat dir "soak.json" in
       Obs.Json.write_file ~pretty:true ~path (Scale.Suite.to_json rows);
       let m = Obs.Manifest.create ~tool:"mmcast_sim" () in
       Obs.Manifest.add_string m "command" "check";
       Obs.Manifest.add_int m "seed" seed;
       Obs.Manifest.add_int m "schedules" schedules;
       Obs.Manifest.add_int m "jobs" jobs;
       Obs.Manifest.add_string m "topology" "paper_figure1";
       Obs.Manifest.add_output m ~kind:"soak" path;
       Obs.Manifest.write m ~path:(Filename.concat dir "manifest.json");
       Printf.printf "soak telemetry -> %s\n" path;
       write_soak_repros rows ~dir);
    if total > 0 then fail_run "check" "invariant violations detected" else `Ok ()
  end

let check_term =
  let approach =
    let doc = "Approach 1-4 to soak, or 0 for all four." in
    Arg.(value & opt int 0 & info [ "a"; "approach" ] ~docv:"N" ~doc)
  in
  let schedules =
    let doc = "Randomized fault schedules per approach." in
    Arg.(value & opt int 3 & info [ "schedules" ] ~docv:"K" ~doc)
  in
  Term.(
    ret (const check_cmd $ approach $ seed_arg $ schedules $ jobs_arg $ telemetry_arg))

(* ---- pcap ---- *)

(* A decode error's reason bucket: the message prefix up to the first
   ':' with digit runs collapsed, so "binding ack option: bad length 7"
   and "... length 9" count under one reason. *)
let decode_reason msg =
  let cut =
    match String.index_opt msg ':' with
    | Some i -> String.sub msg 0 i
    | None -> msg
  in
  let buf = Buffer.create (String.length cut) in
  let last_digit = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !last_digit then Buffer.add_char buf '#';
        last_digit := true
      end
      else begin
        last_digit := false;
        Buffer.add_char buf c
      end)
    cut;
  Buffer.contents buf

let pcap_cmd file verbose =
  match Obs.Pcapng.read_file_lenient file with
  | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
  | Ok (cap, structural_error) ->
    let iface_names =
      List.mapi
        (fun i (intf : Obs.Pcapng.interface) ->
          (i, Option.value intf.Obs.Pcapng.intf_name ~default:(string_of_int i)))
        cap.Obs.Pcapng.interfaces
    in
    let per_iface = Hashtbl.create 8 in
    let malformed = ref 0 in
    let by_reason : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (f : Obs.Pcapng.frame) ->
        Hashtbl.replace per_iface f.Obs.Pcapng.frame_interface
          (1
          + Option.value ~default:0
              (Hashtbl.find_opt per_iface f.Obs.Pcapng.frame_interface));
        match Ipv6.Codec.decode f.Obs.Pcapng.frame_data with
        | Ok pkt ->
          if verbose then
            Printf.printf "%10.6f %-4s %s\n" f.Obs.Pcapng.frame_ts
              (List.assoc_opt f.Obs.Pcapng.frame_interface iface_names
              |> Option.value ~default:"?")
              (Format.asprintf "%a" Ipv6.Packet.pp pkt)
        | Error e ->
          incr malformed;
          let reason = decode_reason e in
          Hashtbl.replace by_reason reason
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_reason reason));
          Printf.eprintf "malformed frame at %.6f s: %s\n" f.Obs.Pcapng.frame_ts e)
      cap.Obs.Pcapng.frames;
    Printf.printf "%s: %d frame(s), %d interface(s)%s\n" file
      (List.length cap.Obs.Pcapng.frames)
      (List.length cap.Obs.Pcapng.interfaces)
      (match cap.Obs.Pcapng.application with
       | Some app -> Printf.sprintf ", written by %S" app
       | None -> "");
    List.iter
      (fun (i, name) ->
        Printf.printf "  %-8s %d frame(s)\n" name
          (Option.value ~default:0 (Hashtbl.find_opt per_iface i)))
      iface_names;
    (match cap.Obs.Pcapng.frames with
     | [] -> ()
     | first :: _ ->
       let last = List.fold_left (fun _ f -> f) first cap.Obs.Pcapng.frames in
       Printf.printf "  time span %.6f .. %.6f s\n" first.Obs.Pcapng.frame_ts
         last.Obs.Pcapng.frame_ts);
    if !malformed > 0 then begin
      Printf.printf "decode failures by reason:\n";
      Hashtbl.fold (fun reason n acc -> (reason, n) :: acc) by_reason []
      |> List.sort (fun (ra, na) (rb, nb) -> if na <> nb then compare nb na else compare ra rb)
      |> List.iter (fun (reason, n) -> Printf.printf "  %-48s %d\n" reason n)
    end;
    (match structural_error with
     | Some e ->
       `Error
         ( false,
           Printf.sprintf
             "capture is structurally damaged after %d readable frame(s): %s"
             (List.length cap.Obs.Pcapng.frames)
             e )
     | None ->
       if !malformed > 0 then
         `Error (false, Printf.sprintf "%d frame(s) failed to re-decode" !malformed)
       else begin
         Printf.printf "all frames re-decode through Ipv6.Codec\n";
         `Ok ()
       end)

let pcap_term =
  let file =
    let doc = "Pcapng file to validate (written by --capture)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let verbose =
    let doc = "Print every decoded frame." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  Term.(ret (const pcap_cmd $ file $ verbose))

(* ---- lineage ---- *)

let lineage_cmd dir receiver from_s to_s =
  let path =
    if Sys.file_exists dir && Sys.is_directory dir then
      Filename.concat dir "lineage.json"
    else dir
  in
  match Obs.Lineage.load path with
  | Error e ->
    (* A document that does not load is bad data, not bad usage. *)
    fail_run "lineage" (Printf.sprintf "%s: %s" path e)
  | Ok l ->
    let node = if receiver = "any" then "" else receiver in
    Printf.printf "%s: %d span(s), %d mark(s)%s\n" path (Obs.Lineage.span_count l)
      (Obs.Lineage.mark_count l)
      (match Obs.Lineage.approach l with
       | "" -> ""
       | a -> Printf.sprintf ", approach %s" a);
    let before = Option.value to_s ~default:infinity in
    (* A chain belongs to the window when the event it explains — its
       terminal span — happened inside it. *)
    let in_window = function
      | [] -> None
      | chain ->
        let last = List.nth chain (List.length chain - 1) in
        if last.Engine.Span.sp_start >= from_s && last.Engine.Span.sp_start <= before then
          Some chain
        else None
    in
    let window_text =
      Printf.sprintf "%s in [%.1f, %s]"
        (if node = "" then "any node" else node)
        from_s
        (match to_s with
         | Some u -> Printf.sprintf "%.1f" u
         | None -> "end")
    in
    let delivery =
      Option.bind (Obs.Lineage.delivery_chain l ~node ~before ()) in_window
    in
    let dropped =
      Option.bind (Obs.Lineage.why_dropped l ~node ~before ()) in_window
    in
    (match delivery with
     | None -> Printf.printf "\nno delivery recorded for %s\n" window_text
     | Some chain ->
       Printf.printf "\nlast delivery for %s:\n" window_text;
       List.iter (Printf.printf "  %s\n") (Engine.Span.render_chain chain));
    (match dropped with
     | None -> Printf.printf "\nno drop recorded for %s\n" window_text
     | Some chain ->
       Printf.printf "\nlast drop for %s:\n" window_text;
       List.iter (Printf.printf "  %s\n") (Engine.Span.render_chain chain));
    (match Obs.Lineage.drop_counts l with
     | [] -> ()
     | counts ->
       Printf.printf "\ndrop totals (whole run):\n";
       List.iter (fun (reason, n) -> Printf.printf "  %-16s %d\n" reason n) counts);
    if delivery = None && dropped = None then
      `Error (false, Printf.sprintf "no lineage recorded for %s" window_text)
    else `Ok ()

let lineage_term =
  let dir =
    let doc =
      "Telemetry directory holding $(b,lineage.json) (as written by $(b,run) \
       $(b,--telemetry)), or a lineage JSON file directly."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let receiver =
    let doc = "Receiver (node label) whose chains to reconstruct; $(b,any) for all." in
    Arg.(value & opt string "R3" & info [ "receiver" ] ~docv:"NODE" ~doc)
  in
  let from_s =
    let doc = "Window start, simulated seconds." in
    Arg.(value & opt float 0.0 & info [ "from" ] ~docv:"S" ~doc)
  in
  let to_s =
    let doc = "Window end, simulated seconds (default: end of run)." in
    Arg.(value & opt (some float) None & info [ "to" ] ~docv:"S" ~doc)
  in
  Term.(ret (const lineage_cmd $ dir $ receiver $ from_s $ to_s))

(* ---- gen ---- *)

let gen_cmd model routers hosts seed out =
  match Scale.Gen.model_of_name model with
  | None -> `Error (false, Printf.sprintf "unknown model %S (waxman or pref)" model)
  | Some model ->
    (* The generator names the router or host count it rejects. *)
    match Scale.Gen.scenario ~model ?hosts ~routers ~seed () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | d ->
      Printf.printf "%s: %s, duration %.1f s, digest %s\n" d.Scale.Desc.d_name
        (Scale.Desc.size_summary d) d.Scale.Desc.d_duration (Scale.Desc.digest d);
      (match Scale.Desc.validate d with
       | Ok () -> ()
       | Error e -> failwith ("generated descriptor failed validation: " ^ e));
      Printf.printf "connected: %b, backbone links: %d\n" (Scale.Desc.connected d)
        (List.length (Scale.Desc.backbone_links d));
      (match out with
       | None -> ()
       | Some path ->
         Obs.Json.ensure_dir (Filename.dirname path);
         Obs.Json.write_file ~pretty:true ~path (Scale.Desc.to_json d);
         Printf.printf "descriptor -> %s\n" path);
      `Ok ()

let gen_term =
  let model =
    let doc = "Topology model: $(b,waxman) or $(b,pref) (preferential attachment)." in
    Arg.(value & opt string "waxman" & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let routers =
    let doc = "Router count." in
    Arg.(value & opt int 25 & info [ "routers" ] ~docv:"N" ~doc)
  in
  let hosts =
    let doc = "Host count (default: max 4 (routers/5))." in
    Arg.(value & opt (some int) None & info [ "hosts" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Write the scenario descriptor JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  Term.(ret (const gen_cmd $ model $ routers $ hosts $ seed_arg $ out))

(* ---- scale ---- *)

let shrink_sustain = 10.0

let shrink_demo ~seed ~telemetry =
  (* The seeded broken variant must violate, shrink to a small
     reproduction, and the reproduction must replay to the same
     violation — the self-test of the whole shrink pipeline. *)
  let broken = Scale.Gen.broken ~seed () in
  Printf.printf "\nbroken variant %s (%s, grafts disabled):\n" broken.Scale.Desc.d_name
    (Scale.Desc.size_summary broken);
  let approach = Approach.local_membership in
  match Scale.Shrink.minimize ~sustain:shrink_sustain broken approach with
  | None -> fail_run "scale" "broken variant did not violate any invariant"
  | Some r ->
    Printf.printf "  %s violated; minimized to %s in %d oracle run(s)\n"
      (Check.Monitor.invariant_name r.Scale.Shrink.sh_invariant)
      (Scale.Desc.size_summary r.Scale.Shrink.sh_min)
      r.Scale.Shrink.sh_runs;
    let repro = Scale.Repro.of_shrink r ~sustain:shrink_sustain in
    Printf.printf "  %s\n" repro.Scale.Repro.rp_detail;
    (match telemetry with
     | None -> ()
     | Some dir ->
       let path = Scale.Repro.write repro ~dir in
       Printf.printf "  minimal repro -> %s\n" path);
    if Scale.Repro.replay repro = [] then
      fail_run "scale" "minimal reproduction no longer replays its violation"
    else Printf.printf "  replay of the minimum reproduces the violation\n"

let scale_cmd quick sizes models seeds seed jobs telemetry =
  let sizes =
    match sizes with
    | Some s -> s
    | None -> if quick then [ 25 ] else [ 25; 50; 100 ]
  in
  let models =
    match
      List.map Scale.Gen.model_of_name
        (String.split_on_char ',' (String.lowercase_ascii models))
    with
    | l when List.for_all Option.is_some l -> List.filter_map Fun.id l
    | _ -> []
  in
  if models = [] then `Error (false, "models must name waxman and/or pref")
  else if List.exists (fun s -> s < 2) sizes then
    `Error (false, "every size needs at least two routers")
  else if seeds < 1 then `Error (false, "seeds must be at least 1")
  else begin
    let cells = Scale.Suite.cells ~sizes ~models ~seeds ~base_seed:seed () in
    Printf.printf
      "scale matrix: %d scenario(s) x %d approaches, %d worker(s)\n%!"
      (List.length cells) (List.length Approach.all) jobs;
    let rows = Scale.Suite.run ~jobs cells in
    Format.printf "%a" Scale.Suite.pp_table rows;
    let total = Scale.Suite.violation_total rows in
    print_violations rows;
    (match telemetry with
     | None -> ()
     | Some dir ->
       Obs.Json.ensure_dir dir;
       let path = Filename.concat dir "scale.json" in
       Obs.Json.write_file ~pretty:true ~path (Scale.Suite.to_json rows);
       let m = Obs.Manifest.create ~tool:"mmcast_sim" () in
       Obs.Manifest.add_string m "command" "scale";
       Obs.Manifest.add_int m "seed" seed;
       Obs.Manifest.add_int m "base_seed" seed;
       Obs.Manifest.add m "sizes" (Obs.Json.List (List.map (fun s -> Obs.Json.Int s) sizes));
       Obs.Manifest.add m "models"
         (Obs.Json.strings (List.map Scale.Gen.model_name models));
       Obs.Manifest.add_int m "jobs" jobs;
       Obs.Manifest.add_int m "violations" total;
       Obs.Manifest.add_output m ~kind:"scale" path;
       Obs.Manifest.write m ~path:(Filename.concat dir "manifest.json");
       Printf.printf "scale telemetry -> %s\n" path);
    Printf.printf "\n%d scenario(s), %d violation(s) across the matrix\n"
      (List.length rows) total;
    shrink_demo ~seed ~telemetry;
    if total > 0 then fail_run "scale" "invariant violations in the scale matrix"
    else `Ok ()
  end

let scale_term =
  let quick =
    let doc = "Small matrix for CI: one 25-router scenario per model." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let sizes =
    let doc = "Comma-separated router counts (default 25,50,100; 25 with --quick)." in
    Arg.(value & opt (some (list int)) None & info [ "sizes" ] ~docv:"N,N,.." ~doc)
  in
  let models =
    let doc = "Comma-separated topology models to run (waxman, pref)." in
    Arg.(value & opt string "waxman,pref" & info [ "models" ] ~docv:"M,M" ~doc)
  in
  let seeds =
    let doc = "Scenario seeds per (model, size) cell." in
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"K" ~doc)
  in
  Term.(
    ret
      (const scale_cmd $ quick $ sizes $ models $ seeds $ seed_arg $ jobs_arg
      $ telemetry_arg))

(* ---- explore ---- *)

let explore_cmd strategy budget seed approach routers clean desc_file sustain
    delay_slots delay_max telemetry =
  if approach < 1 || approach > 4 then `Error (false, "approach must be 1-4")
  else if budget < 1 then `Error (false, "budget must be at least 1")
  else if delay_slots < 1 then `Error (false, "delay-slots must be at least 1")
  else if not (non_negative_finite delay_max) then
    `Error (false, "delay-max must be a non-negative number of seconds")
  else if not (positive_finite sustain) then
    `Error (false, "sustain must be a positive number of seconds")
  else
    match Explore.Strategy.of_name strategy with
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown strategy %S (expected %s)" strategy
            (String.concat ", " Explore.Strategy.all_names) )
    | Some strat -> (
      let target =
        match desc_file with
        | Some path -> (
          match
            let ic = open_in path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | exception Sys_error msg -> Error msg
          | contents ->
            let ( let* ) = Result.bind in
            let* d = Result.bind (Obs.Json.of_string contents) Scale.Desc.of_json in
            let* () = Scale.Desc.validate d in
            Ok d)
        | None ->
          if clean then Ok (Scale.Gen.clean ~routers ~seed ())
          else Ok (Scale.Gen.broken ~routers ~seed ())
      in
      match target with
      | Error msg -> `Error (false, Printf.sprintf "cannot load scenario: %s" msg)
      | Ok d ->
        (* Only the default target — the seeded graft-disabled oracle —
           is known-broken: there the hunt must succeed.  A loaded
           descriptor or the clean twin is expected to survive. *)
        let expect_violation = desc_file = None && not clean in
        let a = Approach.of_number approach in
        Printf.printf "exploring %s (%s) under %s: strategy %s, budget %d, seed %d\n%!"
          d.Scale.Desc.d_name
          (Scale.Desc.size_summary d)
          (Approach.name a) strategy budget seed;
        let outcome =
          Explore.Explorer.explore ~budget ~sustain ~delay_slots ~delay_max ~seed
            ~on_progress:(fun p ->
              Printf.printf
                "  %4d schedule(s), %4d distinct trace(s), %d violation(s), %.1f s\n%!"
                p.Explore.Explorer.pr_runs p.Explore.Explorer.pr_distinct
                p.Explore.Explorer.pr_violations p.Explore.Explorer.pr_wall_s)
            ~strategy:strat d a
        in
        let per_s =
          if outcome.Explore.Explorer.ex_wall_s > 0.0 then
            float_of_int outcome.Explore.Explorer.ex_runs
            /. outcome.Explore.Explorer.ex_wall_s
          else 0.0
        in
        Printf.printf
          "%d schedule(s) explored (%.1f/s), %d distinct trace digest(s)%s\n"
          outcome.Explore.Explorer.ex_runs per_s
          outcome.Explore.Explorer.ex_distinct
          (if outcome.Explore.Explorer.ex_exhausted then
             "; bounded DFS space exhausted"
           else "");
        let manifest = Obs.Manifest.create ~tool:"mmcast_sim" () in
        Obs.Manifest.add_string manifest "command" "explore";
        Obs.Manifest.add_int manifest "seed" seed;
        Obs.Manifest.add_string manifest "strategy" strategy;
        Obs.Manifest.add_int manifest "budget" budget;
        Obs.Manifest.add_int manifest "approach" approach;
        Obs.Manifest.add_string manifest "scenario" d.Scale.Desc.d_name;
        Obs.Manifest.add_string manifest "scenario_digest" (Scale.Desc.digest d);
        Obs.Manifest.add_int manifest "runs" outcome.Explore.Explorer.ex_runs;
        Obs.Manifest.add_int manifest "distinct_digests"
          outcome.Explore.Explorer.ex_distinct;
        let write_artifacts repro =
          match telemetry with
          | None -> ()
          | Some dir ->
            let progress_path = Explore.Explorer.write_progress outcome ~dir in
            Obs.Manifest.add_output manifest ~kind:"explore-progress" progress_path;
            Printf.printf "exploration progress -> %s\n" progress_path;
            (match repro with
            | None -> ()
            | Some r ->
              let path = Scale.Repro.write r ~dir in
              Obs.Manifest.add_output manifest ~kind:"repro" path;
              Printf.printf "shrunk repro bundle -> %s\n" path);
            Obs.Manifest.write manifest
              ~path:(Filename.concat dir "explore_manifest.json")
        in
        (match outcome.Explore.Explorer.ex_violation with
        | None ->
          write_artifacts None;
          if expect_violation then
            fail_run "explore"
              (Printf.sprintf
                 "the seeded graft-disabled violation was not found within %d \
                  schedule(s)"
                 budget)
          else begin
            Printf.printf
              "no invariant violation under any explored interleaving\n";
            `Ok ()
          end
        | Some (sched, v) -> (
          Printf.printf "violating schedule: %s\n  %s\n"
            (Explore.Schedule.summary sched)
            (Format.asprintf "%a" Check.Monitor.pp_violation v);
          match
            Explore.Explorer.minimize ~sustain d a sched
          with
          | None ->
            write_artifacts None;
            fail_run "explore" "violating schedule did not reproduce under shrinking"
          | Some (ss, repro) ->
            let n_choices =
              List.length
                ss.Scale.Shrink.ss_sched.Scale.Runner.sched_choices
            in
            Printf.printf
              "minimized to %d deviation(s) from the canonical schedule in %d \
               oracle run(s) (%s)\n"
              n_choices ss.Scale.Shrink.ss_runs
              (Check.Monitor.invariant_name ss.Scale.Shrink.ss_invariant);
            write_artifacts (Some repro);
            if Scale.Repro.replay repro = [] then
              fail_run "explore" "repro bundle no longer replays its violation"
            else begin
              Printf.printf "repro bundle replays the violation deterministically\n";
              if expect_violation then `Ok ()
              else fail_run "explore" "invariant violation found by exploration"
            end)))

let explore_term =
  let strategy =
    let doc = "Search strategy: $(b,dfs), $(b,pct), or $(b,walk)." in
    Arg.(value & opt string "pct" & info [ "strategy" ] ~docv:"NAME" ~doc)
  in
  let budget =
    let doc = "Maximum schedules to explore." in
    Arg.(value & opt int 500 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let routers =
    let doc = "Router count of the generated target scenario." in
    Arg.(value & opt int 5 & info [ "routers" ] ~docv:"N" ~doc)
  in
  let clean =
    let doc =
      "Explore the graft-enabled twin of the broken variant instead: every \
       interleaving must pass (exit 1 if any violates)."
    in
    Arg.(value & flag & info [ "clean" ] ~doc)
  in
  let desc_file =
    let doc = "Explore a scenario descriptor loaded from $(docv) instead." in
    Arg.(value & opt (some string) None & info [ "desc" ] ~docv:"FILE" ~doc)
  in
  let sustain =
    let doc = "Monitor sustain override in seconds (the cheap-oracle bound)." in
    Arg.(value & opt float 10.0 & info [ "sustain" ] ~docv:"S" ~doc)
  in
  let delay_slots =
    let doc = "Arity of per-hop delivery-delay choice points (1 disables them)." in
    Arg.(value & opt int 3 & info [ "delay-slots" ] ~docv:"K" ~doc)
  in
  let delay_max =
    let doc = "Extra per-hop delay of the highest slot, in seconds." in
    Arg.(value & opt float 0.05 & info [ "delay-max" ] ~docv:"S" ~doc)
  in
  Term.(
    ret
      (const explore_cmd $ strategy $ budget $ seed_arg $ approach_arg $ routers
      $ clean $ desc_file $ sustain $ delay_slots $ delay_max $ telemetry_arg))

(* ---- paper ---- *)

let paper_cmd names jobs telemetry =
  if jobs < 1 then `Error (false, "jobs must be at least 1")
  else begin
    let names = if names = [] then List.map fst Sections.all else names in
    let manifest () =
      let m = Obs.Manifest.create ~tool:"mmcast_sim" () in
      Obs.Manifest.add_int m "jobs" jobs;
      m
    in
    (* Reports land in the telemetry directory, or the working one. *)
    let dir = Option.value telemetry ~default:"." in
    let outputs = ref [] in
    let report ~kind name fields =
      Obs.Json.ensure_dir dir;
      let path = Filename.concat dir name in
      Obs.Json.write_file ~pretty:true ~path
        (Obs.Json.Obj (fields @ [ ("manifest", Obs.Manifest.to_json (manifest ())) ]));
      outputs := (kind, path) :: !outputs;
      path
    in
    paper_verdict "paper" (fun () ->
        List.iter (fun name -> List.assoc name Sections.all { Sections.jobs; report }) names);
    Option.iter
      (fun dir ->
        let m = manifest () in
        Obs.Manifest.add_string m "sections" (String.concat " " names);
        List.iter (fun (kind, path) -> Obs.Manifest.add_output m ~kind path) (List.rev !outputs);
        Obs.Manifest.write m ~path:(Filename.concat dir "manifest.json"))
      telemetry;
    `Ok ()
  end

let paper_term =
  let names =
    let doc =
      Printf.sprintf "Sections to print, in order (default: all): %s."
        (String.concat ", " (List.map fst Sections.all))
    in
    let section = Arg.enum (List.map (fun (name, _) -> (name, name)) Sections.all) in
    Arg.(value & pos_all section [] & info [] ~docv:"SECTION" ~doc)
  in
  Term.(ret (const paper_cmd $ names $ jobs_arg $ telemetry_arg))

(* ---- assembly ---- *)

let cmds =
  [ Cmd.v
      (Cmd.info "run" ~exits
         ~doc:"Run a mobile-receiver scenario and print delivery metrics")
      run_term;
    Cmd.v (Cmd.info "tree" ~exits ~doc:"Print the multicast distribution tree") tree_term;
    Cmd.v
      (Cmd.info "compare" ~exits ~doc:"Quantitative Table 1: all four approaches")
      compare_term;
    Cmd.v (Cmd.info "sweep" ~exits ~doc:"Section 4.4 MLD timer sweep") sweep_term;
    Cmd.v
      (Cmd.info "paper" ~exits
         ~doc:
           "Reproduce the paper's figures, Table 1 and sections 4.3-4.4, plus the \
            ablations, extensions, churn and fault-recovery sections")
      paper_term;
    Cmd.v (Cmd.info "trace" ~exits ~doc:"Dump the protocol event trace") trace_term;
    Cmd.v
      (Cmd.info "check" ~exits
         ~doc:
           "Soak the protocol stack under the runtime invariant monitor and \
            randomized recoverable faults")
      check_term;
    Cmd.v
      (Cmd.info "pcap" ~exits
         ~doc:
           "Validate and summarize a pcapng capture: every frame must re-decode \
            through the wire codec")
      pcap_term;
    Cmd.v
      (Cmd.info "lineage" ~exits
         ~doc:
           "Reconstruct causal packet chains from a recorded lineage: how a \
            packet reached a receiver (inject, encap, tunnel, decap, fan-out) \
            and why the last drop happened")
      lineage_term;
    Cmd.v
      (Cmd.info "gen" ~exits
         ~doc:
           "Procedurally generate a seed-deterministic scale scenario and print or \
            save its descriptor")
      gen_term;
    Cmd.v
      (Cmd.info "scale" ~exits
         ~doc:
           "Run a matrix of generated scenarios under all four approaches with the \
            invariant monitor, then shrink a seeded broken variant to a minimal \
            replayable reproduction")
      scale_term;
    Cmd.v
      (Cmd.info "explore" ~exits
         ~doc:
           "Systematically explore event interleavings (bounded DFS, PCT-style \
            priorities, or a seeded random walk) under the invariant monitor, \
            shrinking any violating schedule to a minimal replayable reproduction")
      explore_term ]

let () =
  let info =
    Cmd.info "mmcast_sim" ~exits ~version:"1.0.0"
      ~doc:"Mobile IPv6 + PIM-DM multicast interoperation simulator"
  in
  exit (Cmd.eval (Cmd.group info cmds))
