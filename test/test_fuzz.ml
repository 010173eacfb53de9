(* Adversarial wire fuzzing of the packet codec.

   The receive path feeds every frame through [Codec.decode] when
   wire-checking is on, so the decoder is the part of the stack an
   adversarial (or merely noisy) link talks to directly.  Three layers
   of defence are exercised here:

   - a mutation fuzzer: >= 10_000 mutated frames per message family,
     derived from valid packets by byte flips, truncations, extensions
     and overwrites — [decode] must return [Ok]/[Error], never raise;
   - a pinned corpus of hand-crafted tricky frames (length lies,
     checksum damage, bad option lengths, headerless buffers) that must
     all be rejected with [Error _];
   - a per-family round-trip property: family-specific generators prove
     [decode_exn (encode p) = p] for every family on its own, so a
     regression in one format cannot hide in a mixed generator.

   [decode_exn] is deliberately used only here (and in sibling tests):
   production code routes through [Codec.decode]. *)

open Ipv6

let mh_home = Addr.of_string "2001:db8:4::10"
let mh_coa = Addr.of_string "2001:db8:6::10"
let ha = Addr.of_string "2001:db8:4::1"
let group = Addr.of_string "ff0e::1:7"

(* ---- per-family sample packets (mutation seeds) ---- *)

let data_packet =
  Packet.make ~src:mh_home ~dst:group (Packet.Data { stream_id = 7; seq = 99; bytes = 512 })

let mld_packets =
  [ Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_nodes
      (Packet.Mld (Mld_message.Query { group = None; max_response_delay_ms = 10000 }));
    Packet.make ~hop_limit:1 ~src:mh_coa ~dst:group
      (Packet.Mld (Mld_message.Report { group }));
    Packet.make ~hop_limit:1 ~src:mh_coa ~dst:Addr.all_routers
      (Packet.Mld (Mld_message.Done { group })) ]

let pim_packets =
  [ Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
      (Packet.Pim (Pim_message.Hello { holdtime_s = 105 }));
    Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
      (Packet.Pim
         (Pim_message.Join_prune
            { upstream_neighbor = mh_home;
              holdtime_s = 210;
              joins = [ { source = mh_home; group } ];
              prunes = [ { source = ha; group } ] }));
    Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
      (Packet.Pim
         (Pim_message.Graft
            { upstream_neighbor = mh_home; joins = [ { source = mh_home; group } ] }));
    Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
      (Packet.Pim
         (Pim_message.Assert
            { group; source = mh_home; metric_preference = 101; metric = 3 }));
    Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
      (Packet.Pim
         (Pim_message.State_refresh
            { refresh_source = mh_home;
              refresh_group = group;
              interval_s = 20;
              prune_indicator = true })) ]

let nd_packets =
  [ Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_nodes
      (Packet.Nd
         (Nd_message.Router_advertisement
            { prefix = Prefix.of_string "2001:db8:6::/64";
              router_lifetime_s = 1800;
              interval_ms = 3000 }));
    Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_nodes
      (Packet.Nd (Nd_message.Home_agent_heartbeat { priority = 3; sequence = 42 })) ]

let bu_packet =
  Packet.make ~src:mh_coa ~dst:ha
    ~dest_options:
      [ Packet.Binding_update
          { sequence = 12;
            lifetime_s = 256;
            home_registration = true;
            care_of = mh_coa;
            sub_options =
              [ Packet.Unique_identifier 77; Packet.Multicast_group_list [ group ] ] };
        Packet.Home_address mh_home ]
    Packet.Empty

let mobility_packets =
  [ bu_packet;
    Packet.make ~src:ha ~dst:mh_coa
      ~dest_options:
        [ Packet.Binding_acknowledgement
            { status = 0; ack_sequence = 12; ack_lifetime_s = 256 } ]
      Packet.Empty;
    Packet.make ~src:ha ~dst:mh_coa ~dest_options:[ Packet.Binding_request ] Packet.Empty ]

let tunnel_packets =
  [ Packet.encapsulate ~src:ha ~dst:mh_coa data_packet;
    Packet.encapsulate ~src:ha ~dst:mh_coa (List.hd mld_packets) ]

let families =
  [ ("data", [ data_packet ]);
    ("mld", mld_packets);
    ("pim", pim_packets);
    ("nd", nd_packets);
    ("mobility", mobility_packets);
    ("tunnel", tunnel_packets) ]

(* ---- mutation fuzzer ---- *)

type mutation =
  | Flip of int * int  (* position seed, xor mask *)
  | Set of int * int  (* position seed, byte value *)
  | Truncate of int  (* new length seed *)
  | Extend of int  (* extra byte count *)

let gen_mutation =
  let open QCheck.Gen in
  oneof
    [ map2 (fun p m -> Flip (p, 1 + (m mod 255))) small_nat small_nat;
      map2 (fun p v -> Set (p, v)) small_nat (int_bound 255);
      map (fun n -> Truncate n) small_nat;
      map (fun n -> Extend (1 + (n mod 40))) small_nat ]

let apply_mutation buf = function
  | Flip (pos, mask) ->
    let len = Bytes.length buf in
    if len = 0 then buf
    else begin
      let pos = pos mod len in
      Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor mask));
      buf
    end
  | Set (pos, v) ->
    let len = Bytes.length buf in
    if len = 0 then buf
    else begin
      Bytes.set buf (pos mod len) (Char.chr v);
      buf
    end
  | Truncate n -> Bytes.sub buf 0 (n mod (Bytes.length buf + 1))
  | Extend n -> Bytes.cat buf (Bytes.make n '\xA5')

let print_mutations ops =
  String.concat ";"
    (List.map
       (function
         | Flip (p, m) -> Printf.sprintf "flip(%d,%#x)" p m
         | Set (p, v) -> Printf.sprintf "set(%d,%d)" p v
         | Truncate n -> Printf.sprintf "trunc(%d)" n
         | Extend n -> Printf.sprintf "ext(%d)" n)
       ops)

let mutation_tests =
  List.map
    (fun (family, packets) ->
      let arb =
        QCheck.make ~print:(fun (i, ops) -> Printf.sprintf "seed %d: %s" i (print_mutations ops))
          QCheck.Gen.(
            pair (int_bound (List.length packets - 1)) (list_size (int_range 1 6) gen_mutation))
      in
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: 10k mutated frames never crash the decoder" family)
        ~count:10_000 arb
        (fun (i, ops) ->
          let wire = Codec.encode (List.nth packets i) in
          let mutated = List.fold_left apply_mutation wire ops in
          match Codec.decode mutated with
          | Ok _ | Error _ -> true
          | exception e ->
            QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)))
    families
  |> List.map QCheck_alcotest.to_alcotest

(* ---- pinned corpus ---- *)

(* Each entry is a deliberately damaged frame with the reason it must
   be rejected.  The corpus is derived from fixed valid packets, so a
   codec change that starts accepting any of these fails loudly. *)
let corpus () =
  let flip wire off mask =
    let w = Bytes.copy wire in
    Bytes.set w off (Char.chr (Char.code (Bytes.get w off) lxor mask));
    w
  in
  let set wire off v =
    let w = Bytes.copy wire in
    Bytes.set w off (Char.chr v);
    w
  in
  let mld_wire = Codec.encode (List.nth mld_packets 1) in
  let pim_wire = Codec.encode (List.nth pim_packets 1) in
  let bu_wire = Codec.encode bu_packet in
  let data_wire = Codec.encode data_packet in
  [ ("empty buffer", Bytes.create 0);
    ("single byte", Bytes.make 1 '\x60');
    ("IPv4 version nibble", set data_wire 0 0x45);
    ("MLD frame truncated mid-message", Bytes.sub mld_wire 0 44);
    ("payload-length field lies high", set data_wire 5 0xff);
    ("payload-length field lies low", set data_wire 5 0x01);
    ("unknown next header", set data_wire 6 99);
    ("MLD checksum damaged", flip mld_wire 42 0xff);
    ("PIM checksum damaged", flip pim_wire 42 0xff);
    ("PIM join count lies beyond the buffer", set pim_wire (40 + 18) 0xee);
    ("destination-options header length lies", set bu_wire 41 0x2f);
    ("binding-update option length lies", set bu_wire 43 0x05);
    ("group-list sub-option length not 16N",
     (* Find the group-list sub-option on the wire and damage its
        length field so the address list is no longer a whole number
        of 16-byte groups. *)
     let w = Bytes.copy bu_wire in
     let rec find i =
       if i + 1 >= Bytes.length w then failwith "group-list sub-option not found"
       else if
         Char.code (Bytes.get w i) = Codec.sub_option_type_multicast_group_list
         && Char.code (Bytes.get w (i + 1)) mod 16 = 0
         && Char.code (Bytes.get w (i + 1)) > 0
       then i + 1
       else find (i + 1)
     in
     let len_off = find 40 in
     Bytes.set w len_off (Char.chr 7);
     w)
  ]

let corpus_tests =
  [ Alcotest.test_case "every pinned tricky frame is rejected" `Quick (fun () ->
        let cases = corpus () in
        Alcotest.(check bool) "corpus has at least 10 entries" true (List.length cases >= 10);
        List.iter
          (fun (name, wire) ->
            match Codec.decode wire with
            | Error _ -> ()
            | Ok p ->
              Alcotest.failf "%s unexpectedly decoded to %s" name
                (Format.asprintf "%a" Packet.pp p)
            | exception e ->
              Alcotest.failf "%s made decode raise %s" name (Printexc.to_string e))
          cases)
  ]

(* ---- per-family round trips ---- *)

let gen_addr =
  QCheck.Gen.map2 (fun hi lo -> Addr.make hi lo) QCheck.Gen.int64 QCheck.Gen.int64

let gen_sg =
  QCheck.Gen.map2 (fun s g -> { Pim_message.source = s; group = g }) gen_addr gen_addr

let roundtrip_family name gen =
  let arb = QCheck.make ~print:(Format.asprintf "%a" Packet.pp) gen in
  QCheck.Test.make ~name:(name ^ ": encode/decode_exn round trip") ~count:1000 arb
    (fun p -> Packet.equal p (Codec.decode_exn (Codec.encode p)))

let family_roundtrips =
  let open QCheck.Gen in
  let with_header gen_payload =
    map3
      (fun (src, dst) hop payload ->
        { Packet.src; dst; hop_limit = 1 + hop; dest_options = []; payload })
      (pair gen_addr gen_addr) (int_bound 254) gen_payload
  in
  [ roundtrip_family "data"
      (with_header
         (map3
            (fun id seq bytes -> Packet.Data { stream_id = id; seq; bytes })
            (int_bound 0xffff) (int_bound 0xffff) (int_range 8 1200)));
    roundtrip_family "mld"
      (with_header
         (oneof
            [ map2
                (fun g d -> Packet.Mld (Mld_message.Query { group = g; max_response_delay_ms = d }))
                (oneof [ return None; map Option.some gen_addr ])
                (int_bound 0xffff);
              map (fun g -> Packet.Mld (Mld_message.Report { group = g })) gen_addr;
              map (fun g -> Packet.Mld (Mld_message.Done { group = g })) gen_addr ]));
    roundtrip_family "pim"
      (with_header
         (oneof
            [ map (fun h -> Packet.Pim (Pim_message.Hello { holdtime_s = h })) (int_bound 0xffff);
              map2
                (fun u (j, p) ->
                  Packet.Pim
                    (Pim_message.Join_prune
                       { upstream_neighbor = u; holdtime_s = 210; joins = j; prunes = p }))
                gen_addr
                (pair (list_size (int_bound 4) gen_sg) (list_size (int_bound 4) gen_sg));
              map2
                (fun u j -> Packet.Pim (Pim_message.Graft { upstream_neighbor = u; joins = j }))
                gen_addr
                (list_size (int_bound 4) gen_sg);
              map2
                (fun u j -> Packet.Pim (Pim_message.Graft_ack { upstream_neighbor = u; joins = j }))
                gen_addr
                (list_size (int_bound 4) gen_sg);
              map2
                (fun (g, s) (mp, m) ->
                  Packet.Pim
                    (Pim_message.Assert
                       { group = g; source = s; metric_preference = mp; metric = m }))
                (pair gen_addr gen_addr)
                (pair (int_bound 0xffff) (int_bound 0xffff));
              map2
                (fun (s, g) interval ->
                  Packet.Pim
                    (Pim_message.State_refresh
                       { refresh_source = s;
                         refresh_group = g;
                         interval_s = interval;
                         prune_indicator = interval mod 2 = 0 }))
                (pair gen_addr gen_addr)
                (int_bound 0xffff) ]));
    roundtrip_family "nd"
      (with_header
         (oneof
            [ map3
                (fun a len (life, interval) ->
                  Packet.Nd
                    (Nd_message.Router_advertisement
                       { prefix = Prefix.make a len;
                         router_lifetime_s = life;
                         interval_ms = interval }))
                gen_addr (int_bound 128)
                (pair (int_bound 0xffff) (int_bound 0xffff));
              map2
                (fun priority sequence ->
                  Packet.Nd (Nd_message.Home_agent_heartbeat { priority; sequence }))
                (int_bound 0xffff) (int_bound 0xffff) ]));
    roundtrip_family "mobility"
      (gen_addr >>= fun src ->
       gen_addr >>= fun dst ->
       let gen_subs =
         list_size (int_bound 2)
           (oneof
              [ map (fun i -> Packet.Unique_identifier i) (int_bound 0xffff);
                map
                  (fun gs -> Packet.Multicast_group_list gs)
                  (list_size (int_bound 3) gen_addr) ])
       in
       let gen_opt =
         oneof
           [ map3
               (fun seq life (h, subs) ->
                 Packet.Binding_update
                   { sequence = seq;
                     lifetime_s = life;
                     home_registration = h;
                     care_of = src;
                     sub_options = subs })
               (int_bound 0xffff) (int_bound 0xffff)
               (pair bool gen_subs);
             map3
               (fun st seq life ->
                 Packet.Binding_acknowledgement
                   { status = st; ack_sequence = seq; ack_lifetime_s = life })
               (int_bound 255) (int_bound 0xffff) (int_bound 0xffff);
             return Packet.Binding_request;
             map (fun a -> Packet.Home_address a) gen_addr ]
       in
       list_size (int_range 1 3) gen_opt >>= fun dest_options ->
       return (Packet.make ~src ~dst ~dest_options Packet.Empty));
    roundtrip_family "tunnel"
      (map3
         (fun src dst (id, seq) ->
           Packet.encapsulate ~src ~dst
             (Packet.make ~src:dst ~dst:src
                (Packet.Data { stream_id = id; seq; bytes = 256 })))
         gen_addr gen_addr
         (pair (int_bound 0xffff) (int_bound 0xffff)))
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* ---- loaders: descriptors, repro bundles, JSON and pcapng ---- *)

module Json = Obs.Json
module Desc = Scale.Desc

(* The graft-disabled 5-router descriptor checked in beside the CLI. *)
let descriptor_text () = In_channel.with_open_bin "../bin/broken-graft-r5-s42.json" In_channel.input_all

(* Byte-level: a byte replaced by one likely to matter in JSON or in a
   prefix, inserted, deleted, or the text cut short. *)
let mutate_bytes rand s =
  let n = String.length s in
  let i = Random.State.int rand (max 1 n) in
  let alphabet = "0123456789:/.,-e\"{}[]x " in
  let c = alphabet.[Random.State.int rand (String.length alphabet)] in
  match Random.State.int rand 4 with
  | 0 -> String.mapi (fun j d -> if j = i then c else d) s
  | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | 2 -> String.sub s 0 i ^ String.sub s (min n (i + 1)) (n - min n (i + 1))
  | _ -> String.sub s 0 i

(* Field-level: a link prefix re-lengthened (the overlap case), a number
   scaled, negated or zeroed, a string swapped for another field's, a
   field dropped, a list entry duplicated or dropped. *)
let rec mutate_json rand (j : Json.t) : Json.t =
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  match j with
  | Json.Obj fields when fields <> [] && Random.State.int rand 3 > 0 ->
    let k = Random.State.int rand (List.length fields) in
    Json.Obj
      (List.concat
         (List.mapi
            (fun i (key, v) ->
              if i <> k then [ (key, v) ]
              else
                match (key, v) with
                | "prefix", Json.String p -> (
                  match String.index_opt p '/' with
                  | Some slash ->
                    let len = pick [ 0; 3; 14; 32; 38; 39; 48; 63; 64; 65; 128; Random.State.int rand 129 ] in
                    [ (key, Json.String (String.sub p 0 slash ^ "/" ^ string_of_int len)) ]
                  | None -> [ (key, v) ])
                | _, _ when Random.State.int rand 8 = 0 -> []
                | _ -> [ (key, mutate_json rand v) ])
            fields))
  | Json.List items when items <> [] ->
    let k = Random.State.int rand (List.length items) in
    Json.List
      (List.concat
         (List.mapi
            (fun i v ->
              if i <> k then [ v ]
              else
                match Random.State.int rand 6 with
                | 0 -> []
                | 1 -> [ v; v ]
                | _ -> [ mutate_json rand v ])
            items))
  | Json.Int n -> Json.Int (pick [ 0; -n; 2 * n; n + 1; max_int ])
  | Json.Float x -> Json.Float (pick [ 0.0; -.x; 2.0 *. x; x +. 1e6; Float.nan; Float.infinity ])
  | Json.String _ -> Json.String (pick [ ""; "S1"; "B3"; "H0"; "ff1e::1"; "2001:db8:100:1::/64" ])
  | Json.Bool b -> Json.Bool (not b)
  | other -> other

(* Every mutant that loads and validates runs under all four
   approaches without raising; returns how many did. *)
let runs_all_approaches what d =
  List.iter
    (fun approach ->
      match Scale.Runner.run d approach with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s: %s validates but approach %d raises %s" what (Desc.to_json d |> Json.to_string)
          (Mmcast.Approach.number approach) (Printexc.to_string e))
    Mmcast.Approach.all

let descriptor_mutation_tests =
  [ Alcotest.test_case "a descriptor mutant that validates runs all four approaches" `Slow
      (fun () ->
        let rand = Random.State.make [| 42 |] in
        let text = descriptor_text () in
        let base =
          match Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e
        in
        let ran = ref 0 in
        let try_mutant what load =
          match load () with
          | exception e -> Alcotest.failf "%s: the loader raised %s" what (Printexc.to_string e)
          | Error _ -> ()
          | Ok d -> (
            match Desc.validate d with
            | exception e -> Alcotest.failf "%s: validate raised %s" what (Printexc.to_string e)
            | Error _ -> ()
            | Ok () ->
              incr ran;
              runs_all_approaches what d)
        in
        for i = 1 to 150 do
          let rounds = 1 + Random.State.int rand 3 in
          let rec go s k = if k = 0 then s else go (mutate_bytes rand s) (k - 1) in
          let s = go text rounds in
          try_mutant (Printf.sprintf "byte mutant %d" i) (fun () ->
              Result.bind (Json.of_string s) Desc.of_json)
        done;
        for i = 1 to 150 do
          let j = mutate_json rand base in
          try_mutant (Printf.sprintf "field mutant %d" i) (fun () -> Desc.of_json j)
        done;
        (* The generator must reach runs, not only rejections. *)
        if !ran < 20 then Alcotest.failf "only %d mutants validated" !ran)
  ]

let never_raises what f =
  match f () with
  | _ -> true
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let loader_properties =
  let capture =
    let w = Obs.Pcapng.Writer.create () in
    let l1 = Obs.Pcapng.Writer.add_interface w ~name:"L1" () in
    let l2 = Obs.Pcapng.Writer.add_interface w ~name:"L2" () in
    List.iteri
      (fun i p ->
        Obs.Pcapng.Writer.add_packet w ~iface:(if i land 1 = 0 then l1 else l2)
          ~ts:(float_of_int i *. 0.25) (Codec.encode p))
      (data_packet :: mld_packets @ pim_packets);
    Bytes.to_string (Obs.Pcapng.Writer.contents w)
  in
  let repro_text =
    let r =
      { Scale.Repro.rp_desc = Scale.Gen.broken ~seed:42 ();
        rp_approach = Mmcast.Approach.local_membership;
        rp_invariant = Check.Monitor.Prune_graft;
        rp_sustain = 10.0;
        rp_sched = Scale.Runner.canonical_schedule;
        rp_detail = "detail";
        rp_trace = [ "1.000 [pim] A: x" ];
        rp_chain = [] }
    in
    Json.to_string (Scale.Repro.to_json r)
  in
  let mutants base =
    QCheck.make ~print:(Printf.sprintf "%S")
      QCheck.Gen.(
        int_range 1 4 >>= fun rounds ->
        int >>= fun seed ->
        let rand = Random.State.make [| seed |] in
        let rec go s k = if k = 0 then s else go (mutate_bytes rand s) (k - 1) in
        return (go base rounds))
  in
  let json_mutants base =
    QCheck.make ~print:(fun j -> Json.to_string j)
      QCheck.Gen.(
        int >>= fun seed ->
        let rand = Random.State.make [| seed |] in
        return (mutate_json rand (mutate_json rand base)))
  in
  let parsed text = match Json.of_string text with Ok j -> j | Error e -> failwith e in
  let rand = Random.State.make [| 43 |] in
  List.map (QCheck_alcotest.to_alcotest ~rand)
    [ QCheck.Test.make ~name:"Pcapng.read and read_lenient never raise" ~count:3000
        (mutants capture) (fun s ->
          let b = Bytes.of_string s in
          never_raises "read" (fun () -> Obs.Pcapng.read b)
          && never_raises "read_lenient" (fun () -> Obs.Pcapng.read_lenient b));
      QCheck.Test.make ~name:"Json.of_string never raises" ~count:3000
        (mutants (descriptor_text ())) (fun s -> never_raises "of_string" (fun () -> Json.of_string s));
      QCheck.Test.make ~name:"Desc.of_json never raises" ~count:2000
        (json_mutants (parsed (descriptor_text ()))) (fun j ->
          never_raises "of_json" (fun () -> Desc.of_json j));
      QCheck.Test.make ~name:"Repro.of_json never raises" ~count:2000
        (json_mutants (parsed repro_text)) (fun j ->
          never_raises "of_json" (fun () -> Scale.Repro.of_json j)) ]
  @ [ Alcotest.test_case "Json.of_string on 100k-deep nesting answers, never raises" `Quick
        (fun () ->
          List.iter
            (fun s -> ignore (never_raises "deep" (fun () -> Json.of_string s)))
            [ String.make 100_000 '['; String.make 100_000 '[' ^ String.make 100_000 ']';
              String.concat "" (List.init 50_000 (fun _ -> "{\"a\":")) ]) ]

let () =
  Alcotest.run "fuzz"
    [ ("mutation", mutation_tests);
      ("corpus", corpus_tests);
      ("roundtrip", family_roundtrips);
      ("loaders", descriptor_mutation_tests @ loader_properties)
    ]
