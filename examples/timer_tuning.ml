(* Section 4.4 as a network-operations exercise: an administrator
   expects highly mobile multicast receivers and wants to know how far
   to lower the MLD Query Interval.  The example sweeps TQuery,
   reports the user-visible delays against the signalling cost, and
   prints the paper's recommendation (including the TRespDel floor).

   Run with: dune exec examples/timer_tuning.exe *)

let () =
  print_endline "MLD timer tuning for mobile receivers (paper, section 4.4)\n";
  let show title rows =
    Printf.printf "%s\n" title;
    Printf.printf "  %8s %22s %10s %12s %10s\n" "TQuery" "join mean/min/max [s]"
      "leave [s]" "wasted [B]" "MLD [B/s]";
    List.iter
      (fun (r : Scale.Paper.sweep_row) ->
        Printf.printf "  %8.0f %8.1f/%5.1f/%6.1f %10.1f %12.0f %10.2f\n" r.tquery_s
          r.join_mean_s r.join_min_s r.join_max_s r.leave_mean_s r.wasted_mean_bytes
          r.mld_bytes_per_s)
      rows;
    print_newline ()
  in
  show "Hosts wait for the next Query (no unsolicited Reports):"
    (Scale.Paper.timer_sweep ~trials:6 ~unsolicited:false ());
  show "With the paper's recommended unsolicited Reports on join:"
    (Scale.Paper.timer_sweep ~trials:6 ~unsolicited:true ());
  let floor = Mld.Mld_config.default.Mld.Mld_config.query_response_interval in
  Printf.printf
    "Recommendation: lower TQuery toward its floor (TQuery >= TRespDel = %.0f s) and\n\
     enable unsolicited Reports; the MLD signalling cost grows only as 1/TQuery while\n\
     join and leave delays (and the bandwidth wasted on stale branches) shrink\n\
     roughly linearly.\n"
    (Engine.Time.seconds floor);
  (* Show the guard rail from the paper's footnote. *)
  match Mld.Mld_config.with_query_interval 5.0 Mld.Mld_config.default with
  | _ -> ()
  | exception Invalid_argument msg ->
    Printf.printf "\nSetting TQuery = 5 s is refused: %s\n" msg
