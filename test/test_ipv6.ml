(* Unit and property tests for the IPv6 packet substrate. *)

open Ipv6

let addr = Alcotest.testable Addr.pp Addr.equal

let addr_tests =
  [ Alcotest.test_case "well-known addresses print" `Quick (fun () ->
        Alcotest.(check string) "all nodes" "ff02::1" (Addr.to_string Addr.all_nodes);
        Alcotest.(check string) "all routers" "ff02::2" (Addr.to_string Addr.all_routers);
        Alcotest.(check string) "all pim" "ff02::d" (Addr.to_string Addr.all_pim_routers);
        Alcotest.(check string) "unspecified" "::" (Addr.to_string Addr.unspecified);
        Alcotest.(check string) "loopback" "::1" (Addr.to_string Addr.loopback));
    Alcotest.test_case "parse round trips" `Quick (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (Addr.to_string (Addr.of_string s)))
          [ "2001:db8::1"; "fe80::42"; "ff05::1:3"; "::"; "::1"; "1:2:3:4:5:6:7:8" ]);
    Alcotest.test_case "compression picks longest zero run" `Quick (fun () ->
        Alcotest.(check string) "longest run"
          "1:0:0:2::3"
          (Addr.to_string (Addr.of_string "1:0:0:2:0:0:0:3")));
    Alcotest.test_case "malformed addresses rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check (option addr)) s None (Addr.of_string_opt s))
          [ ""; "1:2:3"; "1::2::3"; "g::1"; "1:2:3:4:5:6:7:8:9"; "12345::1"; "nonsense" ]);
    Alcotest.test_case "multicast predicates" `Quick (fun () ->
        Alcotest.(check bool) "ff02::1" true (Addr.is_multicast Addr.all_nodes);
        Alcotest.(check bool) "2001::" false
          (Addr.is_multicast (Addr.of_string "2001:db8::1"));
        Alcotest.(check (option int)) "link scope" (Some 2)
          (Addr.multicast_scope Addr.all_nodes);
        Alcotest.(check (option int)) "site scope" (Some 5)
          (Addr.multicast_scope (Addr.of_string "ff05::7"));
        Alcotest.(check (option int)) "unicast" None
          (Addr.multicast_scope (Addr.of_string "2001:db8::1")));
    Alcotest.test_case "make_multicast" `Quick (fun () ->
        let g = Addr.make_multicast ~scope:14 ~group_id:0x42L in
        Alcotest.(check string) "global scope group" "ff0e::42" (Addr.to_string g));
    Alcotest.test_case "link local unicast" `Quick (fun () ->
        Alcotest.(check bool) "fe80" true
          (Addr.is_link_local_unicast (Addr.of_string "fe80::1"));
        Alcotest.(check bool) "febf" true
          (Addr.is_link_local_unicast (Addr.of_string "febf::1"));
        Alcotest.(check bool) "fec0" false
          (Addr.is_link_local_unicast (Addr.of_string "fec0::1")));
    Alcotest.test_case "bytes round trip" `Quick (fun () ->
        let a = Addr.of_string "2001:db8:dead:beef::1234" in
        let buf = Bytes.create 16 in
        Addr.to_bytes a buf 0;
        Alcotest.(check addr) "round trip" a (Addr.of_bytes buf 0))
  ]

let gen_addr =
  QCheck.Gen.map2 (fun hi lo -> Addr.make hi lo) QCheck.Gen.int64 QCheck.Gen.int64

let arb_addr = QCheck.make ~print:Addr.to_string gen_addr

let addr_properties =
  [ QCheck.Test.make ~name:"to_string/of_string round trip" ~count:1000 arb_addr
      (fun a -> Addr.equal a (Addr.of_string (Addr.to_string a)));
    QCheck.Test.make ~name:"bytes round trip" ~count:1000 arb_addr (fun a ->
        let buf = Bytes.create 24 in
        Addr.to_bytes a buf 8;
        Addr.equal a (Addr.of_bytes buf 8));
    QCheck.Test.make ~name:"compare is a total order consistent with equal" ~count:500
      (QCheck.pair arb_addr arb_addr)
      (fun (a, b) ->
        let c = Addr.compare a b in
        (c = 0) = Addr.equal a b && Addr.compare b a = -c)
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* The Printf-based [Addr.to_string] the hex writer replaced, kept
   verbatim as the oracle the writer must match byte for byte. *)
let oracle_groups t =
  (* The eight 16-bit groups of the address, most significant first. *)
  let group_of v shift = Int64.to_int (Int64.shift_right_logical v shift) land 0xffff in
  let hi = Addr.hi t and lo = Addr.lo t in
  [| group_of hi 48; group_of hi 32; group_of hi 16; group_of hi 0;
     group_of lo 48; group_of lo 32; group_of lo 16; group_of lo 0 |]

let oracle_to_string t =
  let g = oracle_groups t in
  (* Find the longest run of zero groups (length >= 2) to compress. *)
  let best_start = ref (-1) and best_len = ref 0 in
  let cur_start = ref (-1) and cur_len = ref 0 in
  for i = 0 to 7 do
    if g.(i) = 0 then begin
      if !cur_start < 0 then cur_start := i;
      incr cur_len;
      if !cur_len > !best_len then begin
        best_start := !cur_start;
        best_len := !cur_len
      end
    end
    else begin
      cur_start := -1;
      cur_len := 0
    end
  done;
  if !best_len < 2 then
    String.concat ":" (List.map (Printf.sprintf "%x") (Array.to_list g))
  else begin
    let before = Array.to_list (Array.sub g 0 !best_start) in
    let after =
      Array.to_list (Array.sub g (!best_start + !best_len) (8 - !best_start - !best_len))
    in
    let fmt parts = String.concat ":" (List.map (Printf.sprintf "%x") parts) in
    fmt before ^ "::" ^ fmt after
  end

let addr_of_groups g =
  let half a b c d =
    List.fold_left (fun acc v -> Int64.logor (Int64.shift_left acc 16) (Int64.of_int v)) 0L
      [ a; b; c; d ]
  in
  Addr.make (half g.(0) g.(1) g.(2) g.(3)) (half g.(4) g.(5) g.(6) g.(7))

(* Bit [i] of [zeros] clear makes group [i] zero, set takes the next
   value of [fill] (never zero).  The 256 masks put a zero run of every
   length at every position, ties between equal runs included. *)
let addr_of_mask zeros fill =
  addr_of_groups (Array.init 8 (fun i -> if zeros land (1 lsl i) = 0 then 0 else fill.(i)))

(* The first and last non-zero group of each hex width. *)
let width_edges = [ 0x1; 0xf; 0x10; 0xff; 0x100; 0xfff; 0x1000; 0xffff ]

(* Non-zero groups of one to four hex digits, so the writer's
   leading-zero suppression is exercised at every width. *)
let gen_nonzero_group =
  QCheck.Gen.(
    oneof
      [ oneofl width_edges; int_range 1 0xf; int_range 0x10 0xff; int_range 0x100 0xfff;
        int_range 0x1000 0xffff ])

let gen_zero_run_addr =
  QCheck.Gen.(
    map2 addr_of_mask (int_bound 255) (array_repeat 8 gen_nonzero_group))

let addr_oracle_tests =
  [ Alcotest.test_case "to_string matches the Printf oracle on every zero mask" `Quick
      (fun () ->
        List.iter
          (fun fill ->
            for zeros = 0 to 255 do
              let a = addr_of_mask zeros fill in
              Alcotest.(check string) (oracle_to_string a) (oracle_to_string a) (Addr.to_string a)
            done)
          [ [| 0x1; 0x20; 0x300; 0x4000; 0xabcd; 0xf; 0xff; 0xfff |]; Array.of_list width_edges ];
        List.iter
          (fun a -> Alcotest.(check string) (oracle_to_string a) (oracle_to_string a) (Addr.to_string a))
          [ Addr.unspecified; Addr.loopback; Addr.all_nodes; Addr.make (-1L) (-1L) ])
  ]

let addr_oracle_properties =
  [ QCheck.Test.make ~name:"to_string matches the Printf oracle" ~count:2000
      (QCheck.make ~print:oracle_to_string gen_zero_run_addr)
      (fun a -> String.equal (oracle_to_string a) (Addr.to_string a));
    QCheck.Test.make ~name:"to_string matches the Printf oracle on random addresses"
      ~count:1000 arb_addr
      (fun a -> String.equal (oracle_to_string a) (Addr.to_string a))
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* The byte-loop [Addr.of_bytes]/[to_bytes] the 64-bit accessors
   replaced, kept verbatim as the oracle they must match. *)
let oracle_of_bytes buf off =
  let get64 off =
    let b i = Int64.of_int (Char.code (Bytes.get buf (off + i))) in
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor (Int64.shift_left !acc 8) (b i)
    done;
    !acc
  in
  Addr.make (get64 off) (get64 (off + 8))

let oracle_to_bytes t buf off =
  let put64 v off =
    for i = 0 to 7 do
      let shift = 8 * (7 - i) in
      Bytes.set buf (off + i)
        (Char.chr (Int64.to_int (Int64.shift_right_logical v shift) land 0xff))
    done
  in
  put64 (Addr.hi t) off;
  put64 (Addr.lo t) (off + 8)

let addr_codec_oracle_properties =
  [ QCheck.Test.make ~name:"of_bytes matches the byte-loop oracle" ~count:1000
      QCheck.(pair (string_of_size (Gen.return 40)) (int_range 0 24))
      (fun (s, off) ->
        let buf = Bytes.of_string s in
        let a = Addr.of_bytes buf off in
        let b = oracle_of_bytes buf off in
        Addr.equal a b && Addr.compare a b = 0 && Hashtbl.hash a = Hashtbl.hash b);
    QCheck.Test.make ~name:"to_bytes matches the byte-loop oracle" ~count:1000
      QCheck.(triple arb_addr (string_of_size (Gen.return 40)) (int_range 0 24))
      (fun (a, s, off) ->
        let mine = Bytes.of_string s and theirs = Bytes.of_string s in
        Addr.to_bytes a mine off;
        oracle_to_bytes a theirs off;
        Bytes.equal mine theirs)
  ]
  |> List.map QCheck_alcotest.to_alcotest

let prefix_tests =
  [ Alcotest.test_case "parse and print" `Quick (fun () ->
        let p = Prefix.of_string "2001:db8:1::/64" in
        Alcotest.(check string) "print" "2001:db8:1::/64" (Prefix.to_string p);
        Alcotest.(check int) "length" 64 (Prefix.length p));
    Alcotest.test_case "contains" `Quick (fun () ->
        let p = Prefix.of_string "2001:db8:1::/64" in
        Alcotest.(check bool) "inside" true
          (Prefix.contains p (Addr.of_string "2001:db8:1::42"));
        Alcotest.(check bool) "outside" false
          (Prefix.contains p (Addr.of_string "2001:db8:2::42")));
    Alcotest.test_case "non-64 lengths" `Quick (fun () ->
        let p = Prefix.of_string "2001:db8::/32" in
        Alcotest.(check bool) "inside /32" true
          (Prefix.contains p (Addr.of_string "2001:db8:ffff::1"));
        let p96 = Prefix.of_string "2001:db8::1:0:0/96" in
        Alcotest.(check bool) "inside /96" true
          (Prefix.contains p96 (Addr.of_string "2001:db8::1:0:42"));
        Alcotest.(check bool) "outside /96" false
          (Prefix.contains p96 (Addr.of_string "2001:db8::2:0:42")));
    Alcotest.test_case "make masks host bits" `Quick (fun () ->
        let p = Prefix.make (Addr.of_string "2001:db8:1::dead:beef") 64 in
        Alcotest.(check string) "masked" "2001:db8:1::/64" (Prefix.to_string p));
    Alcotest.test_case "stateless autoconfiguration" `Quick (fun () ->
        let p = Prefix.of_string "2001:db8:6::/64" in
        let a = Prefix.append_interface_id p 0x300L in
        Alcotest.(check string) "care-of address" "2001:db8:6::300" (Addr.to_string a);
        Alcotest.(check bool) "on link" true (Prefix.contains p a));
    Alcotest.test_case "append_interface_id rejects long prefixes" `Quick (fun () ->
        Alcotest.check_raises "over /64"
          (Invalid_argument "Prefix.append_interface_id: prefix longer than /64")
          (fun () ->
            ignore (Prefix.append_interface_id (Prefix.of_string "2001:db8::/96") 1L)))
  ]

let prefix_properties =
  [ QCheck.Test.make ~name:"prefix contains its own network address" ~count:500
      QCheck.(pair arb_addr (int_range 0 128))
      (fun (a, len) ->
        let p = Prefix.make a len in
        Prefix.contains p (Prefix.address p));
    QCheck.Test.make ~name:"autoconfigured address is on link" ~count:500
      QCheck.(pair arb_addr int64)
      (fun (a, iid) ->
        let p = Prefix.make a 64 in
        Prefix.contains p (Prefix.append_interface_id p iid))
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* ---- packet and codec ---- *)

let mh_home = Addr.of_string "2001:db8:4::10"
let mh_coa = Addr.of_string "2001:db8:6::10"
let ha = Addr.of_string "2001:db8:4::1"
let group = Addr.of_string "ff0e::1:7"

let packet_tests =
  [ Alcotest.test_case "sizes: plain data" `Quick (fun () ->
        let p =
          Packet.make ~src:mh_home ~dst:group
            (Packet.Data { stream_id = 1; seq = 0; bytes = 1000 })
        in
        Alcotest.(check int) "40 + payload" 1040 (Packet.size p));
    Alcotest.test_case "sizes: tunnel adds a 40-byte header" `Quick (fun () ->
        let inner =
          Packet.make ~src:mh_home ~dst:group
            (Packet.Data { stream_id = 1; seq = 0; bytes = 1000 })
        in
        let outer = Packet.encapsulate ~src:ha ~dst:mh_coa inner in
        Alcotest.(check int) "inner + 40" (Packet.size inner + 40) (Packet.size outer);
        Alcotest.(check int) "depth" 1 (Packet.tunnel_depth outer);
        Alcotest.(check int) "data bytes recurse" 1000 (Packet.payload_data_bytes outer));
    Alcotest.test_case "decapsulate" `Quick (fun () ->
        let inner = Packet.make ~src:mh_home ~dst:group Packet.Empty in
        let outer = Packet.encapsulate ~src:ha ~dst:mh_coa inner in
        (match Packet.decapsulate outer with
         | Some p -> Alcotest.(check bool) "inner returned" true (Packet.equal p inner)
         | None -> Alcotest.fail "expected Some");
        Alcotest.(check bool) "plain packet" true (Packet.decapsulate inner = None));
    Alcotest.test_case "multicast group list sub-option size is 2 + 16N" `Quick
      (fun () ->
        let sub g n = Packet.Multicast_group_list (List.init n (fun _ -> g)) in
        Alcotest.(check int) "N=0" 2 (Packet.sub_option_size (sub group 0));
        Alcotest.(check int) "N=1" 18 (Packet.sub_option_size (sub group 1));
        Alcotest.(check int) "N=3" 50 (Packet.sub_option_size (sub group 3)));
    Alcotest.test_case "find options" `Quick (fun () ->
        let bu =
          { Packet.sequence = 3;
            lifetime_s = 256;
            home_registration = true;
            care_of = mh_coa;
            sub_options = [ Packet.Multicast_group_list [ group ] ] }
        in
        let p =
          Packet.make ~src:mh_coa ~dst:ha
            ~dest_options:[ Packet.Binding_update bu; Packet.Home_address mh_home ]
            Packet.Empty
        in
        (match Packet.find_binding_update p with
         | Some found -> Alcotest.(check int) "sequence" 3 found.Packet.sequence
         | None -> Alcotest.fail "expected binding update");
        Alcotest.(check (option addr)) "home address" (Some mh_home)
          (Packet.find_home_address p));
    Alcotest.test_case "is_multicast_dst" `Quick (fun () ->
        let p = Packet.make ~src:mh_home ~dst:group Packet.Empty in
        Alcotest.(check bool) "group" true (Packet.is_multicast_dst p);
        let q = Packet.make ~src:mh_home ~dst:ha Packet.Empty in
        Alcotest.(check bool) "unicast" false (Packet.is_multicast_dst q))
  ]

let codec_tests =
  let check_roundtrip name p =
    Alcotest.test_case name `Quick (fun () ->
        let encoded = Codec.encode p in
        Alcotest.(check int) "size matches wire length" (Packet.size p)
          (Bytes.length encoded);
        match Codec.decode encoded with
        | Ok decoded ->
          Alcotest.(check bool)
            (Format.asprintf "round trip of %a" Packet.pp p)
            true (Packet.equal p decoded)
        | Error e -> Alcotest.failf "decode failed: %s" e)
  in
  [ check_roundtrip "data packet"
      (Packet.make ~src:mh_home ~dst:group
         (Packet.Data { stream_id = 7; seq = 99; bytes = 512 }));
    check_roundtrip "mld general query"
      (Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_nodes
         (Packet.Mld (Mld_message.Query { group = None; max_response_delay_ms = 10000 })));
    check_roundtrip "mld report"
      (Packet.make ~hop_limit:1 ~src:mh_coa ~dst:group
         (Packet.Mld (Mld_message.Report { group })));
    check_roundtrip "mld done"
      (Packet.make ~hop_limit:1 ~src:mh_coa ~dst:Addr.all_routers
         (Packet.Mld (Mld_message.Done { group })));
    check_roundtrip "pim hello"
      (Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
         (Packet.Pim (Pim_message.Hello { holdtime_s = 105 })));
    check_roundtrip "pim join/prune"
      (Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
         (Packet.Pim
            (Pim_message.Join_prune
               { upstream_neighbor = mh_home;
                 holdtime_s = 210;
                 joins = [ { source = mh_home; group } ];
                 prunes = [ { source = ha; group } ] })));
    check_roundtrip "pim graft"
      (Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
         (Packet.Pim
            (Pim_message.Graft
               { upstream_neighbor = mh_home; joins = [ { source = mh_home; group } ] })));
    check_roundtrip "pim assert"
      (Packet.make ~hop_limit:1 ~src:ha ~dst:Addr.all_pim_routers
         (Packet.Pim
            (Pim_message.Assert
               { group; source = mh_home; metric_preference = 101; metric = 3 })));
    check_roundtrip "binding update with multicast group list"
      (Packet.make ~src:mh_coa ~dst:ha
         ~dest_options:
           [ Packet.Binding_update
               { sequence = 12;
                 lifetime_s = 256;
                 home_registration = true;
                 care_of = mh_coa;
                 sub_options =
                   [ Packet.Unique_identifier 77;
                     Packet.Multicast_group_list
                       [ group; Addr.of_string "ff0e::2:8" ] ] };
             Packet.Home_address mh_home ]
         Packet.Empty);
    check_roundtrip "binding ack"
      (Packet.make ~src:ha ~dst:mh_coa
         ~dest_options:
           [ Packet.Binding_acknowledgement
               { status = 0; ack_sequence = 12; ack_lifetime_s = 256 } ]
         Packet.Empty);
    check_roundtrip "binding request"
      (Packet.make ~src:ha ~dst:mh_coa ~dest_options:[ Packet.Binding_request ]
         Packet.Empty);
    check_roundtrip "alternate care-of overrides source"
      (Packet.make ~src:mh_home ~dst:ha
         ~dest_options:
           [ Packet.Binding_update
               { sequence = 1;
                 lifetime_s = 60;
                 home_registration = false;
                 care_of = mh_coa;
                 sub_options = [ Packet.Alternate_care_of mh_coa ] } ]
         Packet.Empty);
    check_roundtrip "tunnelled data (RFC 2473)"
      (Packet.encapsulate ~src:ha ~dst:mh_coa
         (Packet.make ~src:mh_home ~dst:group
            (Packet.Data { stream_id = 3; seq = 1; bytes = 256 })));
    check_roundtrip "doubly nested tunnel"
      (Packet.encapsulate ~src:ha ~dst:mh_coa
         (Packet.encapsulate ~src:mh_home ~dst:ha
            (Packet.make ~src:mh_home ~dst:group
               (Packet.Data { stream_id = 3; seq = 1; bytes = 64 }))));
    Alcotest.test_case "binding update care-of defaults to source" `Quick (fun () ->
        let p =
          Packet.make ~src:mh_coa ~dst:ha
            ~dest_options:
              [ Packet.Binding_update
                  { sequence = 5;
                    lifetime_s = 100;
                    home_registration = true;
                    care_of = mh_coa;
                    sub_options = [] } ]
            Packet.Empty
        in
        match Codec.decode (Codec.encode p) with
        | Ok decoded ->
          let bu = Option.get (Packet.find_binding_update decoded) in
          Alcotest.(check addr) "care-of = src" mh_coa bu.Packet.care_of
        | Error e -> Alcotest.failf "decode failed: %s" e);
    Alcotest.test_case "figure 5: sub-option wire layout" `Quick (fun () ->
        let groups = [ group; Addr.of_string "ff0e::2:8" ] in
        let wire = Codec.encode_sub_option (Packet.Multicast_group_list groups) in
        Alcotest.(check int) "total = 2 + 16N" 34 (Bytes.length wire);
        Alcotest.(check int) "sub-option type" Codec.sub_option_type_multicast_group_list
          (Char.code (Bytes.get wire 0));
        Alcotest.(check int) "sub-option len = 16N" 32 (Char.code (Bytes.get wire 1));
        Alcotest.(check addr) "first group" group (Addr.of_bytes wire 2));
    Alcotest.test_case "corrupted checksum rejected" `Quick (fun () ->
        let p =
          Packet.make ~hop_limit:1 ~src:mh_coa ~dst:group
            (Packet.Mld (Mld_message.Report { group }))
        in
        let wire = Codec.encode p in
        (* Flip a bit inside the ICMPv6 body. *)
        let off = Bytes.length wire - 1 in
        Bytes.set wire off (Char.chr (Char.code (Bytes.get wire off) lxor 1));
        match Codec.decode wire with
        | Ok _ -> Alcotest.fail "corrupted packet accepted"
        | Error e ->
          Alcotest.(check bool) "mentions checksum" true
            (String.length e >= 6 && String.sub e 0 6 = "ICMPv6"));
    Alcotest.test_case "truncated buffer rejected" `Quick (fun () ->
        let p = Packet.make ~src:mh_home ~dst:ha Packet.Empty in
        let wire = Codec.encode p in
        let cut = Bytes.sub wire 0 (Bytes.length wire - 5) in
        match Codec.decode cut with
        | Ok _ -> Alcotest.fail "truncated packet accepted"
        | Error _ -> ());
    Alcotest.test_case "tiny data payload rejected by encode" `Quick (fun () ->
        let p =
          Packet.make ~src:mh_home ~dst:group
            (Packet.Data { stream_id = 1; seq = 1; bytes = 4 })
        in
        match Codec.encode p with
        | _ -> Alcotest.fail "expected Codec.Error"
        | exception Codec.Error _ -> ());
    Alcotest.test_case "the largest data payload still fits a tunnel" `Quick (fun () ->
        let data bytes =
          Packet.make ~src:mh_home ~dst:group (Packet.Data { stream_id = 1; seq = 1; bytes })
        in
        let tunnelled bytes = Packet.encapsulate ~src:mh_home ~dst:ha (data bytes) in
        let max = Codec.data_max_bytes in
        Alcotest.(check int) "plain" (Packet.size (data max))
          (Bytes.length (Codec.encode (data max)));
        Alcotest.(check int) "tunnelled" (Packet.size (tunnelled max))
          (Bytes.length (Codec.encode (tunnelled max)));
        match Codec.encode (tunnelled (max + 1)) with
        | _ -> Alcotest.fail "one byte more must not fit the tunnel"
        | exception Codec.Error _ -> ())
  ]

(* Generator for arbitrary encodable packets. *)

let gen_mld_message =
  let open QCheck.Gen in
  oneof
    [ map2
        (fun g d -> Mld_message.Query { group = g; max_response_delay_ms = d })
        (oneof [ return None; map Option.some gen_addr ])
        (int_bound 0xffff);
      map (fun g -> Mld_message.Report { group = g }) gen_addr;
      map (fun g -> Mld_message.Done { group = g }) gen_addr ]

let gen_sg =
  QCheck.Gen.map2 (fun s g -> { Pim_message.source = s; group = g }) gen_addr gen_addr

let gen_nd_message =
  let open QCheck.Gen in
  oneof
    [ map3
        (fun a len (life, interval) ->
          Nd_message.Router_advertisement
            { prefix = Prefix.make a len; router_lifetime_s = life; interval_ms = interval })
        gen_addr (int_bound 128)
        (pair (int_bound 0xffff) (int_bound 0xffff));
      map2
        (fun priority sequence -> Nd_message.Home_agent_heartbeat { priority; sequence })
        (int_bound 0xffff) (int_bound 0xffff) ]

let gen_pim_message =
  let open QCheck.Gen in
  oneof
    [ map (fun h -> Pim_message.Hello { holdtime_s = h }) (int_bound 0xffff);
      map2
        (fun u (j, p) ->
          Pim_message.Join_prune
            { upstream_neighbor = u; holdtime_s = 210; joins = j; prunes = p })
        gen_addr
        (pair (list_size (int_bound 4) gen_sg) (list_size (int_bound 4) gen_sg));
      map2
        (fun u j -> Pim_message.Graft { upstream_neighbor = u; joins = j })
        gen_addr
        (list_size (int_bound 4) gen_sg);
      map2
        (fun u j -> Pim_message.Graft_ack { upstream_neighbor = u; joins = j })
        gen_addr
        (list_size (int_bound 4) gen_sg);
      map2
        (fun (g, s) (mp, m) ->
          Pim_message.Assert { group = g; source = s; metric_preference = mp; metric = m })
        (pair gen_addr gen_addr)
        (pair (int_bound 0xffff) (int_bound 0xffff));
      map2
        (fun (s, g) interval ->
          Pim_message.State_refresh
            { refresh_source = s; refresh_group = g; interval_s = interval;
              prune_indicator = interval mod 2 = 0 })
        (pair gen_addr gen_addr)
        (int_bound 0xffff) ]

(* Care-of addresses must agree with the source address (or an alternate
   care-of sub-option) for the decode to reconstruct them; the generator
   takes the packet source and builds consistent binding updates. *)
let gen_dest_options src =
  let open QCheck.Gen in
  let gen_sub_options =
    list_size (int_bound 2)
      (oneof
         [ map (fun i -> Packet.Unique_identifier i) (int_bound 0xffff);
           map
             (fun gs -> Packet.Multicast_group_list gs)
             (list_size (int_bound 3) gen_addr) ])
  in
  let gen_bu =
    map3
      (fun seq life (h, subs) ->
        let care_of, sub_options =
          match subs with
          | Packet.Alternate_care_of a :: _ -> (a, subs)
          | _ -> (src, subs)
        in
        Packet.Binding_update
          { sequence = seq; lifetime_s = life; home_registration = h; care_of; sub_options })
      (int_bound 0xffff) (int_bound 0xffff)
      (pair bool gen_sub_options)
  in
  let gen_other =
    oneof
      [ map3
          (fun st seq life ->
            Packet.Binding_acknowledgement
              { status = st; ack_sequence = seq; ack_lifetime_s = life })
          (int_bound 255) (int_bound 0xffff) (int_bound 0xffff);
        return Packet.Binding_request;
        map (fun a -> Packet.Home_address a) gen_addr ]
  in
  list_size (int_bound 3) (oneof [ gen_bu; gen_other ])

let gen_packet =
  let open QCheck.Gen in
  let gen_payload self n =
    if n = 0 then
      oneof
        [ map3
            (fun id seq bytes -> Packet.Data { stream_id = id; seq; bytes })
            (int_bound 0xffff) (int_bound 0xffff)
            (int_range 8 1200);
          map (fun m -> Packet.Mld m) gen_mld_message;
          map (fun m -> Packet.Pim m) gen_pim_message;
          map (fun m -> Packet.Nd m) gen_nd_message;
          return Packet.Empty ]
    else map (fun inner -> Packet.Encapsulated inner) (self (n - 1))
  in
  fix
    (fun self n ->
      gen_addr >>= fun src ->
      gen_addr >>= fun dst ->
      int_range 1 255 >>= fun hop_limit ->
      gen_dest_options src >>= fun dest_options ->
      gen_payload self n >>= fun payload ->
      return { Packet.src; dst; hop_limit; dest_options; payload })
    2

let arb_packet = QCheck.make ~print:(Format.asprintf "%a" Packet.pp) gen_packet

let codec_properties =
  [ QCheck.Test.make ~name:"encode/decode round trip" ~count:500 arb_packet (fun p ->
        match Codec.decode (Codec.encode p) with
        | Ok decoded -> Packet.equal p decoded
        | Error _ -> false);
    QCheck.Test.make ~name:"Packet.size equals wire length" ~count:500 arb_packet
      (fun p -> Packet.size p = Bytes.length (Codec.encode p));
    QCheck.Test.make ~name:"size is positive and at least a header" ~count:500 arb_packet
      (fun p -> Packet.size p >= Packet.header_size)
  ]
  |> List.map QCheck_alcotest.to_alcotest

let frame_properties =
  (* The interned frame must be indistinguishable from a fresh encode:
     the network's fan-out path substitutes one shared [Frame.force]
     for the per-delivery [Codec.encode] it replaced, and these
     properties are what make that substitution sound.  [arb_packet]
     ranges over every message family (data, MLD, PIM, ND, empty,
     encapsulated, with destination options). *)
  let force_is_encode =
    QCheck.Test.make ~name:"interned frame is byte-identical to a fresh encode"
      ~count:500 arb_packet (fun p ->
        let cell = Codec.Frame.of_packet p in
        match Codec.Frame.force cell with
        | Error _ -> false
        | Ok frame -> Bytes.equal frame (Codec.encode p))
  in
  let force_is_shared =
    QCheck.Test.make ~name:"force returns the same physical frame every time"
      ~count:200 arb_packet (fun p ->
        let cell = Codec.Frame.of_packet p in
        match (Codec.Frame.force cell, Codec.Frame.force cell) with
        | Ok a, Ok b -> a == b
        | _ -> false)
  in
  let copy_is_private =
    QCheck.Test.make ~name:"copy equals the frame but never aliases it" ~count:200
      arb_packet (fun p ->
        let cell = Codec.Frame.of_packet p in
        match (Codec.Frame.copy cell, Codec.Frame.force cell) with
        | Ok copy, Ok frame -> Bytes.equal copy frame && not (copy == frame)
        | _ -> false)
  in
  let decoded_matches_decode =
    QCheck.Test.make ~name:"memoized decode equals decoding the shared frame"
      ~count:500 arb_packet (fun p ->
        let cell = Codec.Frame.of_packet p in
        match (Codec.Frame.decoded cell, Codec.decode (Codec.encode p)) with
        | Ok a, Ok b -> Packet.equal a b && Packet.equal a (Codec.Frame.packet cell)
        | Error a, Error b -> a = b
        | _ -> false)
  in
  List.map QCheck_alcotest.to_alcotest
    [ force_is_encode; force_is_shared; copy_is_private; decoded_matches_decode ]

let fuzz_properties =
  (* Decoding must never raise on arbitrary input: it either parses or
     reports an error. *)
  let decode_never_crashes =
    QCheck.Test.make ~name:"decode of random bytes never raises" ~count:1000
      QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
      (fun junk ->
        match Codec.decode (Bytes.of_string junk) with
        | Ok _ | Error _ -> true)
  in
  let decode_mutated_never_crashes =
    QCheck.Test.make ~name:"decode of bit-flipped valid packets never raises" ~count:500
      QCheck.(pair arb_packet (pair small_nat small_nat))
      (fun (p, (pos_seed, bit)) ->
        let wire = Codec.encode p in
        if Bytes.length wire = 0 then true
        else begin
          let pos = pos_seed mod Bytes.length wire in
          Bytes.set wire pos
            (Char.chr (Char.code (Bytes.get wire pos) lxor (1 lsl (bit mod 8))));
          match Codec.decode wire with
          | Ok _ | Error _ -> true
        end)
  in
  let truncations_never_crash =
    QCheck.Test.make ~name:"decode of truncated valid packets never raises" ~count:500
      QCheck.(pair arb_packet small_nat)
      (fun (p, cut_seed) ->
        let wire = Codec.encode p in
        let cut = cut_seed mod max 1 (Bytes.length wire) in
        match Codec.decode (Bytes.sub wire 0 cut) with
        | Ok _ | Error _ -> true)
  in
  List.map QCheck_alcotest.to_alcotest
    [ decode_never_crashes; decode_mutated_never_crashes; truncations_never_crash ]

(* Lineage label codes.  [label_oracle] is [Packet.label] as it was
   before the label became a table of kinds, kept verbatim. *)
let rec label_oracle (t : Packet.t) =
  match t.payload with
  | Data { stream_id; seq; _ } ->
    "data s" ^ string_of_int stream_id ^ "#" ^ string_of_int seq
  | Mld (Mld_message.Query _) -> "mld-query"
  | Mld (Mld_message.Report _) -> "mld-report"
  | Mld (Mld_message.Done _) -> "mld-done"
  | Pim (Pim_message.Hello _) -> "pim-hello"
  | Pim (Pim_message.Join_prune _) -> "pim-join-prune"
  | Pim (Pim_message.Graft _) -> "pim-graft"
  | Pim (Pim_message.Graft_ack _) -> "pim-graft-ack"
  | Pim (Pim_message.Assert _) -> "pim-assert"
  | Pim _ -> "pim"
  | Nd _ -> "nd"
  | Encapsulated inner -> "tunnel[" ^ label_oracle inner ^ "]"
  | Empty ->
    if List.exists (function Packet.Binding_update _ -> true | _ -> false) t.dest_options
    then "bu"
    else if
      List.exists
        (function Packet.Binding_acknowledgement _ -> true | _ -> false)
        t.dest_options
    then "back"
    else "ctl"

let max_stream = 0xffff
let max_seq = 0xffff_ffff

(* Stream ids and sequence numbers at, inside and past the code's
   field bounds, negatives included. *)
let gen_label_int bound =
  QCheck.Gen.(
    oneof
      [ int_bound 100;
        int_range (bound - 2) (bound + 2);
        return 99_999_999_999;
        map (fun n -> -n) (int_range 1 3) ])

(* Every payload kind, under 0 to 9 tunnel headers (a code holds 7). *)
let gen_labelled_packet =
  let open QCheck.Gen in
  gen_addr >>= fun src ->
  gen_addr >>= fun dst ->
  gen_dest_options src >>= fun dest_options ->
  oneof
    [ map3
        (fun stream_id seq bytes -> Packet.Data { stream_id; seq; bytes })
        (gen_label_int max_stream) (gen_label_int max_seq) (int_range 8 1200);
      map (fun m -> Packet.Mld m) gen_mld_message;
      map (fun m -> Packet.Pim m) gen_pim_message;
      map (fun m -> Packet.Nd m) gen_nd_message;
      return Packet.Empty ]
  >>= fun payload ->
  int_bound 9 >>= fun depth ->
  let rec wrap n p = if n = 0 then p else wrap (n - 1) (Packet.encapsulate ~src ~dst p) in
  return (wrap depth (Packet.make ~dest_options ~src ~dst payload))

let arb_labelled_packet = QCheck.make ~print:label_oracle gen_labelled_packet

let codable (p : Packet.t) =
  let rec innermost (p : Packet.t) =
    match p.payload with Encapsulated inner -> innermost inner | _ -> p
  in
  Packet.tunnel_depth p <= 7
  &&
  match (innermost p).payload with
  | Data { stream_id; seq; _ } ->
    stream_id >= 0 && stream_id <= max_stream && seq >= 0 && seq <= max_seq
  | Mld _ | Pim _ | Nd _ | Encapsulated _ | Empty -> true

let label_code_properties =
  [ QCheck.Test.make ~name:"label matches its oracle" ~count:1000 arb_labelled_packet
      (fun p -> Packet.label p = label_oracle p);
    QCheck.Test.make ~name:"label_of_code inverts label_code inside the bounds"
      ~count:2000 arb_labelled_packet (fun p ->
        let code = Packet.label_code p in
        if codable p then code >= 0 && Packet.label_of_code code = Packet.label p
        else code = -1);
    QCheck.Test.make ~name:"a span name renders the packet's label, code or not"
      ~count:1000
      (QCheck.pair arb_labelled_packet
         (QCheck.make QCheck.Gen.(oneofl Engine.Span.[ Tx; Rx; Inject; Deliver ])))
      (fun (p, verb) ->
        let c = Engine.Span.create ~label_of_code:Packet.label_of_code () in
        let id =
          Engine.Span.event c ~at:0.0 ~name:(Net.Network.span_name c verb p) ~node:"N" ()
        in
        (Engine.Span.get c id).Engine.Span.sp_name
        = Engine.Span.verb_prefix verb ^ label_oracle p) ]
  |> List.map QCheck_alcotest.to_alcotest

let label_code_tests =
  [ Alcotest.test_case "label_code allocates nothing" `Quick (fun () ->
        let inner =
          Packet.make ~src:Addr.unspecified ~dst:Addr.unspecified
            (Packet.Data { stream_id = 3; seq = 17; bytes = 500 })
        in
        let p = Packet.encapsulate ~src:Addr.unspecified ~dst:Addr.unspecified inner in
        let before = Gc.minor_words () in
        let code = Packet.label_code p in
        let words = Gc.minor_words () -. before in
        Alcotest.(check (float 0.0)) "minor words" 0.0 words;
        Alcotest.(check string) "renders" "tunnel[data s3#17]" (Packet.label_of_code code));
    Alcotest.test_case "label_of_code rejects what no packet codes to" `Quick (fun () ->
        let data =
          Packet.label_code
            (Packet.make ~src:Addr.unspecified ~dst:Addr.unspecified
               (Packet.Data { stream_id = 1; seq = 1; bytes = 8 }))
        in
        let pim =
          Packet.label_code
            (Packet.make ~src:Addr.unspecified ~dst:Addr.unspecified
               (Packet.Pim (Pim_message.Hello { holdtime_s = 1 })))
        in
        List.iter
          (fun (what, code) ->
            match Packet.label_of_code code with
            | s -> Alcotest.failf "%s rendered as %S" what s
            | exception Invalid_argument _ -> ())
          [ ("-1", -1);
            ("kind 14", 14 lsl 48);
            ("a stream on a pim-hello", pim lor (1 lsl 32));
            ("a seq on a pim-hello", pim lor 1);
            ("depth 8", data lor (8 lsl 52)) ])
  ]

let hexdump_tests =
  [ Alcotest.test_case "dump shape" `Quick (fun () ->
        let buf = Bytes.init 20 Char.chr in
        let s = Hexdump.to_string buf in
        let lines = String.split_on_char '\n' s in
        Alcotest.(check int) "two rows" 2 (List.length lines);
        (match lines with
         | first :: _ ->
           Alcotest.(check bool) "offset column" true
             (String.length first > 4 && String.sub first 0 4 = "0000")
         | [] -> Alcotest.fail "no output"));
    Alcotest.test_case "bit dump matches byte count" `Quick (fun () ->
        let buf = Bytes.make 4 '\255' in
        let s = Format.asprintf "%a" Hexdump.pp_bits buf in
        Alcotest.(check string) "all ones" "11111111 11111111 11111111 11111111" s)
  ]

let () =
  Alcotest.run "ipv6"
    [ ( "addr",
        addr_tests @ addr_properties @ addr_oracle_tests @ addr_oracle_properties
        @ addr_codec_oracle_properties );
      ("prefix", prefix_tests @ prefix_properties);
      ("packet", packet_tests);
      ("codec", codec_tests @ codec_properties @ frame_properties @ fuzz_properties);
      ("label", label_code_tests @ label_code_properties);
      ("hexdump", hexdump_tests)
    ]
