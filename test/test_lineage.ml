(* Causal packet-lineage: span collection across the figure-1 handover,
   happens-before queries, the mmcast-lineage/1 on-disk round trip, the
   catapult export and the per-handover latency breakdown. *)

open Mmcast

let group = Scenario.group

(* The canonical traced run: figure-1 network, CBR stream from t=30,
   R3 hands off L4 -> L6 at t=60, 120 s total, lineage collection on
   from the start. *)
let traced_run approach =
  let spec = { Scenario.default_spec with Scenario.approach } in
  let scenario = Scenario.paper_figure1 spec in
  let lin = Obs.Lineage.create ~approach:(Approach.name approach) () in
  Obs.Lineage.attach lin scenario.Scenario.sim;
  Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
  ignore
    (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0
       ~until:110.0 ~interval:0.5 ~bytes:500);
  Traffic.at scenario 60.0 (fun () ->
      Host_stack.move_to (Scenario.host scenario "R3") (Scenario.link scenario "L6"));
  Scenario.run_until scenario 120.0;
  lin

let span_names chain = List.map (fun (s : Engine.Span.span) -> s.Engine.Span.sp_name) chain

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let query_tests =
  [ Alcotest.test_case "delivery chain crosses the tunnel" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        Alcotest.(check bool) "spans recorded" true (Obs.Lineage.span_count lin > 0);
        Alcotest.(check bool) "marks recorded" true (Obs.Lineage.mark_count lin > 0);
        match Obs.Lineage.delivery_chain lin ~node:"R3" () with
        | None -> Alcotest.fail "no delivery chain for R3"
        | Some chain ->
          let names = span_names chain in
          (* The last delivery to R3 happens after the handover, so the
             chain must show the full encap -> tunnel -> decap journey. *)
          Alcotest.(check bool) "starts at injection" true
            (has_prefix "inject" (List.hd names));
          Alcotest.(check bool) "contains encap" true (List.mem "encap" names);
          Alcotest.(check bool) "contains decap" true (List.mem "decap" names);
          let last = List.nth chain (List.length chain - 1) in
          Alcotest.(check bool) "ends at a delivery" true
            (has_prefix "deliver" last.Engine.Span.sp_name);
          Alcotest.(check string) "delivered on R3" "R3" last.Engine.Span.sp_node);
    Alcotest.test_case "why_dropped names a typed reason" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        match Obs.Lineage.why_dropped lin () with
        | None -> Alcotest.fail "figure-1 run recorded no drops at all"
        | Some chain ->
          let last = List.nth chain (List.length chain - 1) in
          (match last.Engine.Span.sp_drop with
           | None -> Alcotest.fail "terminal span of a drop chain has no reason"
           | Some r ->
             Alcotest.(check bool) "drop span is named after its reason" true
               (last.Engine.Span.sp_name
                = "drop:" ^ Engine.Span.drop_reason_name r));
          (* The rendered chain carries the reason for humans too. *)
          let rendered = String.concat "\n" (Engine.Span.render_chain chain) in
          let has_sub needle hay =
            let n = String.length needle and h = String.length hay in
            let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "rendered chain flags the drop" true
            (has_sub "[dropped:" rendered));
    Alcotest.test_case "drop_counts agrees with the raw spans" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        let counted =
          List.fold_left (fun acc (_, n) -> acc + n) 0 (Obs.Lineage.drop_counts lin)
        in
        let raw =
          List.length
            (List.filter
               (fun (s : Engine.Span.span) -> s.Engine.Span.sp_drop <> None)
               (Engine.Span.spans (Obs.Lineage.collector lin)))
        in
        Alcotest.(check bool) "at least one drop" true (raw > 0);
        Alcotest.(check int) "per-reason totals sum to the raw count" raw counted;
        List.iter
          (fun (name, n) ->
            Alcotest.(check bool) (name ^ " is a known reason") true
              (Engine.Span.drop_reason_of_name name <> None);
            Alcotest.(check bool) (name ^ " count positive") true (n > 0))
          (Obs.Lineage.drop_counts lin))
  ]

(* A collector whose label decoder counts its calls: a query renders
   one packet name per span it views. *)
let counting_collector () =
  let decoded = ref 0 in
  let c =
    Engine.Span.create
      ~label_of_code:(fun code ->
        incr decoded;
        Ipv6.Packet.label_of_code code)
      ()
  in
  (c, decoded)

let data_packet seq =
  Ipv6.Packet.make ~src:Ipv6.Addr.unspecified ~dst:group
    (Ipv6.Packet.Data { stream_id = 1; seq; bytes = 500 })

let render_tests =
  [ Alcotest.test_case "a verb or node query views only the span it returns" `Quick
      (fun () ->
        let c, decoded = counting_collector () in
        let name verb seq = Net.Network.span_name c verb (data_packet seq) in
        ignore
          (Engine.Span.event c ~at:0.0 ~name:(name Engine.Span.Deliver 0) ~node:"R3" ());
        for seq = 1 to 1000 do
          let at = float_of_int seq in
          ignore (Engine.Span.event c ~at ~name:(name Engine.Span.Tx seq) ~node:"A" ());
          ignore (Engine.Span.event c ~at ~name:(name Engine.Span.Rx seq) ~node:"R3" ())
        done;
        (match Engine.Span.last_matching c ~verb:Engine.Span.Deliver (fun _ -> true) with
         | Some sp ->
           Alcotest.(check string) "the delivery" "deliver data s1#0" sp.Engine.Span.sp_name
         | None -> Alcotest.fail "no delivery found");
        Alcotest.(check int) "names rendered" 1 !decoded;
        decoded := 0;
        (match Engine.Span.last_matching c ~node:"A" ~verb:Engine.Span.Rx (fun _ -> true) with
         | Some sp -> Alcotest.failf "found %s" sp.Engine.Span.sp_name
         | None -> ());
        Alcotest.(check int) "names rendered by a miss" 0 !decoded);
    Alcotest.test_case "delivery_chain allocates for its chain, not the store" `Quick
      (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        let words f =
          let before = Gc.minor_words () in
          let r = f () in
          (r, Gc.minor_words () -. before)
        in
        let chain, hit = words (fun () -> Obs.Lineage.delivery_chain lin ~node:"R3" ()) in
        let n = match chain with Some l -> List.length l | None -> 0 in
        Alcotest.(check bool) "a chain" true (n > 0);
        (* Router A delivers nothing, so the query scans every span. *)
        let none, miss = words (fun () -> Obs.Lineage.delivery_chain lin ~node:"A" ()) in
        Alcotest.(check bool) "no chain on a router" true (none = None);
        (* Measured: 898 words for a 14-span chain, 23 for the miss; a
           view of each of the 3,799 spans would cost over 40,000. *)
        if hit > 100.0 *. float_of_int n then
          Alcotest.failf "%.0f minor words for a %d-span chain" hit n;
        if miss > 100.0 then Alcotest.failf "%.0f minor words for a miss" miss)
  ]

let roundtrip_tests =
  [ Alcotest.test_case "mmcast-lineage/1 survives save and load" `Quick (fun () ->
        let lin = traced_run Approach.tunnel_to_home_agent in
        let path = Filename.temp_file "lineage" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Obs.Lineage.save lin ~path;
            match Obs.Lineage.load path with
            | Error e -> Alcotest.failf "reload failed: %s" e
            | Ok back ->
              Alcotest.(check string) "approach"
                (Obs.Lineage.approach lin) (Obs.Lineage.approach back);
              Alcotest.(check int) "span count"
                (Obs.Lineage.span_count lin) (Obs.Lineage.span_count back);
              Alcotest.(check int) "mark count"
                (Obs.Lineage.mark_count lin) (Obs.Lineage.mark_count back);
              Alcotest.(check (list (pair string int))) "drop totals"
                (Obs.Lineage.drop_counts lin) (Obs.Lineage.drop_counts back);
              let rendered queries store =
                match queries store with
                | None -> []
                | Some chain -> Engine.Span.render_chain chain
              in
              Alcotest.(check (list string)) "delivery chain identical"
                (rendered (fun l -> Obs.Lineage.delivery_chain l ~node:"R3" ()) lin)
                (rendered (fun l -> Obs.Lineage.delivery_chain l ~node:"R3" ()) back);
              Alcotest.(check (list string)) "drop chain identical"
                (rendered (fun l -> Obs.Lineage.why_dropped l ()) lin)
                (rendered (fun l -> Obs.Lineage.why_dropped l ()) back)));
    Alcotest.test_case "of_json rejects a wrong schema" `Quick (fun () ->
        let doc =
          Obs.Json.Obj
            [ ("schema", Obs.Json.String "mmcast-telemetry/1");
              ("spans", Obs.Json.List []);
              ("marks", Obs.Json.List []) ]
        in
        match Obs.Lineage.of_json doc with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "wrong schema accepted")
  ]

(* Byte-identity pins: the md5 of the whole mmcast-lineage/1 document
   of [traced_run] under each approach, with its span and mark counts.
   Recorded before the span store became columnar; any change to what a
   run records, or to how it is serialised, moves one of these. *)
let lineage_pins =
  [ (Approach.local_membership, "0fd6b11f7da5e0b106035555415de1f7", 3320, 12);
    (Approach.bidirectional_tunnel, "d590253d564eb2d5d0a08a8f6905f71e", 3799, 10);
    (Approach.tunnel_to_home_agent, "f7b3210319a68710fd8c79c74b2ad479", 3320, 12);
    (Approach.tunnel_from_home_agent, "28a164a2fdf41d94a334b9f9524cad00", 3799, 10) ]

let pin_tests =
  List.map
    (fun (approach, md5, n_spans, n_marks) ->
      Alcotest.test_case
        (Printf.sprintf "approach %d lineage bytes pinned" (Approach.number approach))
        `Quick (fun () ->
          let lin = traced_run approach in
          let text = Obs.Json.to_string (Obs.Lineage.to_json lin) in
          Alcotest.(check int) "span count" n_spans (Obs.Lineage.span_count lin);
          Alcotest.(check int) "mark count" n_marks (Obs.Lineage.mark_count lin);
          Alcotest.(check string) "document md5" md5 (Digest.to_hex (Digest.string text));
          let path = Filename.temp_file "lineage" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Obs.Lineage.save lin ~path;
              match Obs.Lineage.load path with
              | Error e -> Alcotest.failf "reload failed: %s" e
              | Ok back ->
                Alcotest.(check string) "save -> load -> to_json identical" text
                  (Obs.Json.to_string (Obs.Lineage.to_json back)))))
    lineage_pins

(* The columnar store across chunk boundaries (a chunk holds 4,096
   spans; the Figure-1 runs stay inside one). *)
let store_tests =
  [ Alcotest.test_case "views read back what was recorded across chunks" `Quick (fun () ->
        let c = Engine.Span.create ~label_of_code:Ipv6.Packet.label_of_code () in
        let n = 10_000 in
        for i = 0 to n - 1 do
          let at = float_of_int i in
          if i mod 7 = 3 then
            ignore
              (Engine.Span.drop c ~at ~node:"N" ~reason:Engine.Span.Hop_limit
                 ~detail:(string_of_int i) ~parent:(i - 1) ())
          else begin
            let id =
              Engine.Span.open_span c ~at ~name:(Engine.Span.intern c (Printf.sprintf "s%d" i)) ~node:"N"
                ~parent:(i / 2) ~cause:(i - 3) ~attrs:[ ("i", string_of_int i) ] ()
            in
            Engine.Span.close_span c ~at:(at +. 0.5) id
          end
        done;
        Alcotest.(check int) "count" n (Engine.Span.span_count c);
        List.iter
          (fun i ->
            let sp = Engine.Span.get c i in
            Alcotest.(check int) "id" i sp.Engine.Span.sp_id;
            Alcotest.(check (float 0.0)) "start" (float_of_int i) sp.Engine.Span.sp_start;
            if i mod 7 = 3 then begin
              Alcotest.(check bool) "drop" true (sp.Engine.Span.sp_drop = Some Engine.Span.Hop_limit);
              Alcotest.(check string) "drop name" "drop:hop-limit" sp.Engine.Span.sp_name;
              Alcotest.(check int) "drop parent" (i - 1) sp.Engine.Span.sp_parent;
              Alcotest.(check (list (pair string string))) "detail"
                [ ("detail", string_of_int i) ] sp.Engine.Span.sp_attrs
            end
            else begin
              Alcotest.(check string) "name" (Printf.sprintf "s%d" i) sp.Engine.Span.sp_name;
              Alcotest.(check (float 0.0)) "end" (float_of_int i +. 0.5) sp.Engine.Span.sp_end;
              Alcotest.(check int) "parent" (if i = 0 then -1 else i / 2) sp.Engine.Span.sp_parent;
              Alcotest.(check int) "cause" (if i < 3 then -1 else i - 3) sp.Engine.Span.sp_cause;
              Alcotest.(check int) "trace inherited from the root"
                (Engine.Span.trace_of c 0) (Engine.Span.trace_of c i)
            end)
          [ 0; 1; 4095; 4096; 4097; 8191; 8192; n - 1 ];
        let drops = List.length (List.filter (fun i -> i mod 7 = 3) (List.init n Fun.id)) in
        Alcotest.(check bool) "drop totals"
          true
          (Engine.Span.drop_counts c = [ (Engine.Span.Hop_limit, drops) ]);
        (match Engine.Span.last_matching c ~before:5000.0 ~dropped:true (fun _ -> true) with
         | Some sp -> Alcotest.(check int) "last drop at or before 5000" 4994 sp.Engine.Span.sp_id
         | None -> Alcotest.fail "no drop found");
        match Engine.Span.last_matching c ~before:8192.0 (fun sp -> sp.Engine.Span.sp_drop = None) with
        | Some sp -> Alcotest.(check int) "last plain span at or before 8192" 8192 sp.Engine.Span.sp_id
        | None -> Alcotest.fail "no span found");
    Alcotest.test_case "within restores the ambient context, also on a raise" `Quick (fun () ->
        let c = Engine.Span.create ~label_of_code:Ipv6.Packet.label_of_code () in
        let root =
          Engine.Span.open_span c ~at:0.0 ~name:(Engine.Span.intern c "root") ~node:"A" ()
        in
        Engine.Span.clear_context c;
        let child = ref (-1) in
        Engine.Span.within c root (fun () ->
            Alcotest.(check (pair int int)) "inside"
              (Engine.Span.trace_of c root, root) (Engine.Span.context c);
            child := Engine.Span.event c ~at:1.0 ~name:(Engine.Span.intern c "child") ~node:"A" ());
        Alcotest.(check int) "child parented to the ambient span" root
          (Engine.Span.get c !child).Engine.Span.sp_parent;
        Alcotest.(check (pair int int)) "restored" (-1, -1) (Engine.Span.context c);
        (match Engine.Span.within c !child (fun () -> failwith "boom") with
         | () -> Alcotest.fail "no exception"
         | exception Failure _ -> ());
        Alcotest.(check (pair int int)) "restored after a raise" (-1, -1) (Engine.Span.context c))
  ]

(* Loader fuzzing: a recorded document with one span mutated.  Each
   mutation breaks an invariant the queries rely on, so [of_json] must
   answer [Error] — and must not raise. *)
let recorded_doc = lazy (Obs.Lineage.to_json (traced_run Approach.bidirectional_tunnel))

let with_spans doc f =
  match doc with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (function
           | "spans", Obs.Json.List spans -> ("spans", Obs.Json.List (f spans))
           | field -> field)
         fields)
  | _ -> Alcotest.fail "lineage document is not an object"

(* Replace (or add) field [name] of span [k]. *)
let set_span_field k name value doc =
  with_spans doc
    (List.mapi (fun i sp ->
         match sp with
         | Obs.Json.Obj fields when i = k ->
           Obs.Json.Obj ((name, value) :: List.remove_assoc name fields)
         | sp -> sp))

let rejects what doc =
  match Obs.Lineage.of_json doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s accepted" what
  | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)

let loader_tests =
  [ Alcotest.test_case "the unmutated document loads" `Quick (fun () ->
        match Obs.Lineage.of_json (Lazy.force recorded_doc) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "recorded document rejected: %s" e);
    Alcotest.test_case "a dangling parent is rejected" `Quick (fun () ->
        let span =
          Obs.Json.Obj
            [ ("id", Obs.Json.Int 0); ("trace", Obs.Json.Int 0); ("parent", Obs.Json.Int 7);
              ("name", Obs.Json.String "drop:loss-fault"); ("node", Obs.Json.String "R3");
              ("start_s", Obs.Json.float 1.0); ("end_s", Obs.Json.float 1.0);
              ("drop", Obs.Json.String "loss-fault") ]
        in
        rejects "a one-span document with parent 7"
          (Obs.Json.Obj
             [ ("schema", Obs.Json.String Obs.Lineage.schema);
               ("spans", Obs.Json.List [ span ]);
               ("marks", Obs.Json.List []) ]));
    Alcotest.test_case "a forward parent is rejected" `Quick (fun () ->
        let doc = Lazy.force recorded_doc in
        rejects "parent = own id" (set_span_field 100 "parent" (Obs.Json.Int 100) doc);
        rejects "parent after the span" (set_span_field 100 "parent" (Obs.Json.Int 101) doc);
        rejects "parent below -1" (set_span_field 100 "parent" (Obs.Json.Int (-2)) doc));
    Alcotest.test_case "an out-of-range cause is rejected" `Quick (fun () ->
        let doc = Lazy.force recorded_doc in
        let n = Obs.Lineage.span_count (Result.get_ok (Obs.Lineage.of_json doc)) in
        rejects "cause past the last span" (set_span_field 100 "cause" (Obs.Json.Int n) doc);
        rejects "cause below -1" (set_span_field 100 "cause" (Obs.Json.Int (-5)) doc));
    Alcotest.test_case "an id gap is rejected" `Quick (fun () ->
        rejects "span 100 removed"
          (with_spans (Lazy.force recorded_doc) (List.filteri (fun i _ -> i <> 100))));
    Alcotest.test_case "an unknown drop name is rejected" `Quick (fun () ->
        rejects "drop \"eaten-by-grue\""
          (set_span_field 100 "drop" (Obs.Json.String "eaten-by-grue")
             (Lazy.force recorded_doc)));
    Alcotest.test_case "a non-string attribute is rejected" `Quick (fun () ->
        rejects "attrs {link: 3}"
          (set_span_field 100 "attrs"
             (Obs.Json.Obj [ ("link", Obs.Json.Int 3) ])
             (Lazy.force recorded_doc)))
  ]

(* Replace field [name] of span [k] where it stands, so a loaded and
   re-saved document can be compared byte for byte. *)
let rename_span k name doc =
  with_spans doc
    (List.mapi (fun i sp ->
         match sp with
         | Obs.Json.Obj fields when i = k ->
           Obs.Json.Obj
             (List.map
                (fun (f, v) -> if f = "name" then (f, Obs.Json.String name) else (f, v))
                fields)
         | sp -> sp))

let resaved doc =
  match Obs.Lineage.of_json doc with
  | Ok back -> Obs.Json.to_string (Obs.Lineage.to_json back)
  | Error e -> Alcotest.failf "document rejected: %s" e

(* Names no label code holds: past the stream, sequence and tunnel
   bounds, or no packet's at all. *)
let uncoded_names =
  [ "rx data s1#99999999999";
    "tx data s70000#1";
    "deliver data s-1#4";
    "inject tunnel[tunnel[tunnel[tunnel[tunnel[tunnel[tunnel[tunnel[data s0#1]]]]]]]]";
    "tx ";
    "a free-form name";
    "drop:hop-limit";
    "" ]

let one_span_doc ~name ~node =
  Obs.Json.Obj
    [ ("schema", Obs.Json.String Obs.Lineage.schema);
      ( "spans",
        Obs.Json.List
          [ Obs.Json.Obj
              [ ("id", Obs.Json.Int 0); ("trace", Obs.Json.Int 0); ("parent", Obs.Json.Int (-1));
                ("name", Obs.Json.String name); ("node", Obs.Json.String node);
                ("start_s", Obs.Json.float 1.0); ("end_s", Obs.Json.float 1.0) ] ] );
      ("marks", Obs.Json.List []) ]

(* A random value for a random field of a random span. *)
let gen_mutation =
  let open QCheck.Gen in
  let value =
    oneof
      [ return Obs.Json.Null;
        map
          (fun i -> Obs.Json.Int i)
          (oneof [ int_range (-3) 5000; return max_int; return min_int ]);
        map (fun f -> Obs.Json.Float f) (oneofl [ 0.5; -1.0; nan; infinity; 1e300 ]);
        map (fun s -> Obs.Json.String s) (oneofl (uncoded_names @ [ "loss-fault"; "x" ]));
        return (Obs.Json.List []);
        return (Obs.Json.Obj [ ("k", Obs.Json.Null) ]) ]
  in
  triple (int_bound 3798)
    (oneofl
       [ "id"; "trace"; "parent"; "name"; "node"; "start_s"; "end_s"; "drop"; "cause"; "attrs" ])
    value

let loader_property_tests =
  [ Alcotest.test_case "uncoded names load and re-save byte-identically" `Quick (fun () ->
        let doc =
          List.fold_left
            (fun (k, doc) name -> (k + 97, rename_span k name doc))
            (100, Lazy.force recorded_doc) uncoded_names
          |> snd
        in
        Alcotest.(check string) "re-saved" (Obs.Json.to_string doc) (resaved doc));
    Alcotest.test_case "a delivery named past the code bounds answers delivery_chain" `Quick
      (fun () ->
        let name = "deliver data s1#99999999999" in
        match Obs.Lineage.of_json (one_span_doc ~name ~node:"R3") with
        | Error e -> Alcotest.failf "rejected: %s" e
        | Ok lin -> (
          match Obs.Lineage.delivery_chain lin ~node:"R3" () with
          | Some [ sp ] -> Alcotest.(check string) "name" name sp.Engine.Span.sp_name
          | Some _ | None -> Alcotest.fail "no one-span delivery chain"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_json answers Ok or Error on a mutated span, never raises"
         ~count:200
         (QCheck.make
            ~print:(fun (k, f, v) -> Printf.sprintf "span %d %s = %s" k f (Obs.Json.to_string v))
            gen_mutation)
         (fun (k, field, value) ->
           match Obs.Lineage.of_json (set_span_field k field value (Lazy.force recorded_doc)) with
           | Ok _ | Error _ -> true))
  ]

let member = Obs.Json.member

let catapult_tests =
  [ Alcotest.test_case "catapult export shape" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        let doc = Obs.Export.catapult_json lin in
        (match Obs.Json.of_string (Obs.Json.to_string doc) with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "catapult not valid JSON: %s" e);
        (match member "displayTimeUnit" doc with
         | Some (Obs.Json.String "ms") -> ()
         | _ -> Alcotest.fail "displayTimeUnit missing");
        match member "traceEvents" doc with
        | Some (Obs.Json.List events) ->
          let phases =
            List.filter_map
              (fun e ->
                match member "ph" e with
                | Some (Obs.Json.String p) -> Some p
                | _ -> None)
            events
          in
          Alcotest.(check bool) "events present" true (events <> []);
          List.iter
            (fun needed ->
              Alcotest.(check bool) ("has a " ^ needed ^ " event") true
                (List.mem needed phases))
            (* M: thread-name metadata, X: spans, i: marks. *)
            [ "M"; "X"; "i" ];
          (* Causal edges (e.g. a Prune-caused Graft) become one
             start/finish flow-arrow pair each — no more, no less. *)
          let causes =
            List.length
              (List.filter
                 (fun (s : Engine.Span.span) -> s.Engine.Span.sp_cause >= 0)
                 (Engine.Span.spans (Obs.Lineage.collector lin)))
          in
          let count p = List.length (List.filter (String.equal p) phases) in
          Alcotest.(check int) "one flow start per causal edge" causes (count "s");
          Alcotest.(check int) "one flow finish per causal edge" causes (count "f");
          List.iter
            (fun e ->
              match (member "ph" e, member "ts" e) with
              | Some (Obs.Json.String ("X" | "i" | "s" | "f")), Some ts ->
                let v = Option.get (Obs.Json.to_float_opt ts) in
                Alcotest.(check bool) "timestamps non-negative" true (v >= 0.0)
              | _ -> ())
            events
        | _ -> Alcotest.fail "no traceEvents list");
    Alcotest.test_case "causal edges become flow arrows" `Quick (fun () ->
        let lin = Obs.Lineage.create ~approach:"synthetic" () in
        let c = Obs.Lineage.collector lin in
        let prune =
          Engine.Span.event c ~at:1.0 ~name:(Engine.Span.intern c "pim-prune-sent") ~node:"B" ()
        in
        Engine.Span.clear_context c;
        ignore
          (Engine.Span.event c ~at:1.5 ~name:(Engine.Span.intern c "pim-graft-sent") ~node:"C"
             ~cause:prune ());
        match member "traceEvents" (Obs.Export.catapult_json lin) with
        | Some (Obs.Json.List events) ->
          let phases =
            List.filter_map
              (fun e ->
                match member "ph" e with
                | Some (Obs.Json.String p) -> Some p
                | _ -> None)
              events
          in
          Alcotest.(check bool) "flow start" true (List.mem "s" phases);
          Alcotest.(check bool) "flow finish" true (List.mem "f" phases)
        | _ -> Alcotest.fail "no traceEvents list")
  ]

let handover_tests =
  [ Alcotest.test_case "breakdown covers the L4 -> L6 handoff" `Quick (fun () ->
        let lin = traced_run Approach.tunnel_to_home_agent in
        match Obs.Export.handover_breakdowns lin with
        | [] -> Alcotest.fail "no handover records"
        | b :: _ ->
          Alcotest.(check string) "node" "R3" b.Obs.Export.hb_node;
          Alcotest.(check string) "from" "L4" b.Obs.Export.hb_from;
          Alcotest.(check string) "to" "L6" b.Obs.Export.hb_to;
          Alcotest.(check (float 1e-9)) "handoff instant" 60.0
            (Engine.Time.seconds b.Obs.Export.hb_at);
          let positive what = function
            | Some v -> Alcotest.(check bool) (what ^ " positive") true (v > 0.0)
            | None -> Alcotest.failf "%s missing from the breakdown" what
          in
          positive "movement detection" b.Obs.Export.hb_movement_detection_s;
          positive "BU propagation" b.Obs.Export.hb_bu_propagation_s;
          positive "tunnel setup" b.Obs.Export.hb_tunnel_setup_s;
          positive "first delivery" b.Obs.Export.hb_first_delivery_s;
          (* Stages are nested phases of one disruption: movement
             detection ends before the tunnel is up, and the stream is
             only whole again after that. *)
          let v o = Option.get o in
          Alcotest.(check bool) "detection <= tunnel setup" true
            (v b.Obs.Export.hb_movement_detection_s
             <= v b.Obs.Export.hb_tunnel_setup_s);
          Alcotest.(check bool) "tunnel setup <= first delivery" true
            (v b.Obs.Export.hb_tunnel_setup_s
             <= v b.Obs.Export.hb_first_delivery_s));
    Alcotest.test_case "handover document shape" `Quick (fun () ->
        let lin = traced_run Approach.local_membership in
        let doc = Obs.Export.handovers_json lin in
        (match member "schema" doc with
         | Some (Obs.Json.String s) ->
           Alcotest.(check string) "schema" Obs.Lineage.schema s
         | _ -> Alcotest.fail "no schema field");
        (match member "kind" doc with
         | Some (Obs.Json.String "handover-breakdown") -> ()
         | _ -> Alcotest.fail "wrong kind");
        match member "handovers" doc with
        | Some (Obs.Json.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "no handover records in the document")
  ]

let determinism_tests =
  [ Alcotest.test_case "traced runs through Parallel.map ~jobs:2 match the sequential runs"
      `Quick (fun () ->
        let approaches =
          Approach.
            [ local_membership; bidirectional_tunnel; tunnel_to_home_agent;
              tunnel_from_home_agent ]
        in
        let doc approach =
          Digest.to_hex
            (Digest.string (Obs.Json.to_string (Obs.Lineage.to_json (traced_run approach))))
        in
        Alcotest.(check (list string)) "document md5s" (List.map doc approaches)
          (Parallel.map ~jobs:2 doc approaches));
    Alcotest.test_case "collectors interning in opposite orders render one document" `Quick
      (fun () ->
        let record first =
          let lin = Obs.Lineage.create ~approach:"synthetic" () in
          let c = Obs.Lineage.collector lin in
          List.iter (fun s -> ignore (Engine.Span.intern c s)) first;
          let name = Engine.Span.intern c in
          let root = Engine.Span.event c ~at:0.0 ~name:(name "encap") ~node:"D" () in
          ignore
            (Engine.Span.event c ~at:1.0 ~name:(name "pim-graft-sent") ~node:"C" ~parent:root ());
          ignore
            (Engine.Span.event c ~at:2.0
               ~name:(Net.Network.span_name c Engine.Span.Rx (data_packet 3))
               ~node:"R3" ~parent:root ());
          ignore
            (Engine.Span.event c ~at:2.5 ~name:(name "rx data s1#99999999999") ~node:"R3" ());
          ignore
            (Engine.Span.drop c ~at:3.0 ~node:"R3" ~reason:Engine.Span.Hop_limit ~parent:root ());
          Obs.Json.to_string (Obs.Lineage.to_json lin)
        in
        let names = [ "encap"; "pim-graft-sent"; "decap"; "rx data s1#99999999999" ] in
        Alcotest.(check string) "document" (record names) (record (List.rev names)))
  ]

let purity_tests =
  [ Alcotest.test_case "collection does not perturb deliveries" `Quick (fun () ->
        let run traced =
          let scenario = Scenario.paper_figure1 Scenario.default_spec in
          if traced then begin
            let lin = Obs.Lineage.create () in
            Obs.Lineage.attach lin scenario.Scenario.sim
          end;
          Traffic.at scenario 5.0 (fun () ->
              Scenario.subscribe_receivers scenario group);
          ignore
            (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0
               ~until:80.0 ~interval:0.5 ~bytes:500);
          Scenario.run_until scenario 90.0;
          ( List.map
              (fun name ->
                Host_stack.received_count (Scenario.host scenario name) ~group)
              [ "R1"; "R2"; "R3" ],
            Engine.Sim.events_executed scenario.Scenario.sim )
        in
        Alcotest.(check (pair (list int) int))
          "identical observables" (run false) (run true))
  ]

let () =
  Alcotest.run "lineage"
    [ ("queries", query_tests @ render_tests);
      ("round trip", roundtrip_tests);
      ("byte pins", pin_tests);
      ("store", store_tests);
      ("loader", loader_tests @ loader_property_tests);
      ("same bytes", determinism_tests);
      ("catapult", catapult_tests);
      ("handover", handover_tests);
      ("purity", purity_tests)
    ]
