(* Tests for the netsim library: addressing, flow hashing, tenants,
   packets, NIC RSS, and the L4 LB NAT stage. *)

let check = Alcotest.check

let tuple ?(src_ip = 0x0A000001) ?(src_port = 12345) ?(dst_ip = 0x0A0000FE)
    ?(dst_port = 80) () =
  { Netsim.Addr.src_ip; src_port; dst_ip; dst_port }

(* ------------------------------------------------------------------ *)
(* Addr                                                                 *)

let test_ip_roundtrip () =
  List.iter
    (fun s ->
      let ip = Netsim.Addr.ip_of_string s in
      check Alcotest.string "roundtrip" (s ^ ":1 -> " ^ s ^ ":2")
        (Format.asprintf "%a" Netsim.Addr.pp_four_tuple
           { src_ip = ip; src_port = 1; dst_ip = ip; dst_port = 2 }))
    [ "0.0.0.0"; "10.0.0.1"; "192.168.255.254"; "255.255.255.255" ]

let test_ip_invalid () =
  List.iter
    (fun s ->
      try
        ignore (Netsim.Addr.ip_of_string s);
        Alcotest.fail ("accepted " ^ s)
      with Invalid_argument _ -> ())
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "-1.0.0.0" ]

let test_ip_octets () =
  check Alcotest.int "octets" 0x0102_0304 (Netsim.Addr.ip_of_string "1.2.3.4");
  try
    ignore (Netsim.Addr.ip_of_string "300.0.0.0");
    Alcotest.fail "accepted octet 300"
  with Invalid_argument _ -> ()

(* Equal tuples are one flow: they hash alike, and a different source
   port makes a different flow. *)
let test_four_tuple_equal () =
  let hash t = Netsim.Flow_hash.of_four_tuple t in
  check Alcotest.int "equal" (hash (tuple ())) (hash (tuple ()));
  check Alcotest.bool "differs" false (hash (tuple ()) = hash (tuple ~src_port:9 ()))

(* ------------------------------------------------------------------ *)
(* Flow_hash                                                            *)

let test_hash_deterministic () =
  let t = tuple () in
  check Alcotest.int "same hash" (Netsim.Flow_hash.of_four_tuple t)
    (Netsim.Flow_hash.of_four_tuple t)

let test_hash_nonnegative_32bit () =
  let rng = Engine.Rng.create 1 in
  for _ = 1 to 1000 do
    let t =
      tuple ~src_ip:(Engine.Rng.int rng 0x3FFFFFFF)
        ~src_port:(Engine.Rng.int rng 65536) ()
    in
    let h = Netsim.Flow_hash.of_four_tuple t in
    check Alcotest.bool "32-bit non-negative" true (h >= 0 && h <= 0xFFFFFFFF)
  done

let test_hash_seed_changes () =
  let t = tuple () in
  check Alcotest.bool "seed matters" true
    (Netsim.Flow_hash.of_four_tuple ~seed:1 t
    <> Netsim.Flow_hash.of_four_tuple ~seed:2 t)

let test_hash_spread () =
  (* Hashing sequential ports must spread well across 8 buckets. *)
  let counts = Array.make 8 0 in
  for p = 0 to 7999 do
    let h = Netsim.Flow_hash.of_four_tuple (tuple ~src_port:(p land 0xFFFF) ~src_ip:p ()) in
    let b = Kernel.Bitops.reciprocal_scale ~hash:h ~n:8 in
    counts.(b) <- counts.(b) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "each bucket near 1000" true (abs (c - 1000) < 200))
    counts

(* ------------------------------------------------------------------ *)
(* Tenant                                                               *)

let test_tenant_population () =
  let ts = Netsim.Tenant.population ~n:5 ~base_dport:30000 in
  check Alcotest.int "count" 5 (Array.length ts);
  Array.iteri
    (fun i (tn : Netsim.Tenant.t) ->
      check Alcotest.int "dport" (30000 + i) tn.dport;
      check Alcotest.int "vni" (0x1000 + i) tn.vni)
    ts

(* ------------------------------------------------------------------ *)
(* Packet                                                               *)

let test_packet_sizes () =
  let p = Netsim.Packet.make ~tuple:(tuple ()) ~kind:(Netsim.Packet.Data 100) in
  check Alcotest.int "data size" 154 (Netsim.Packet.size_bytes p);
  let syn = Netsim.Packet.make ~tuple:(tuple ()) ~kind:Netsim.Packet.Syn in
  check Alcotest.int "syn size" 54 (Netsim.Packet.size_bytes syn);
  let enc = Netsim.Packet.encapsulate syn ~vni:7 in
  check Alcotest.int "vxlan adds 50" 104 (Netsim.Packet.size_bytes enc);
  check Alcotest.int "decap restores" 54
    (Netsim.Packet.size_bytes (Netsim.Packet.decapsulate enc))

let test_packet_encap_fields () =
  let p = Netsim.Packet.make ~tuple:(tuple ()) ~kind:Netsim.Packet.Fin in
  check Alcotest.(option int) "bare" None p.Netsim.Packet.vxlan_vni;
  let e = Netsim.Packet.encapsulate p ~vni:0x42 in
  check Alcotest.(option int) "encapsulated" (Some 0x42) e.Netsim.Packet.vxlan_vni;
  check Alcotest.int "hash preserved" p.Netsim.Packet.flow_hash
    e.Netsim.Packet.flow_hash

(* ------------------------------------------------------------------ *)
(* Nic                                                                  *)

let test_nic_deterministic () =
  let nic = Netsim.Nic.create ~queues:4 in
  let p = Netsim.Packet.make ~tuple:(tuple ()) ~kind:Netsim.Packet.Syn in
  check Alcotest.int "same queue" (Netsim.Nic.receive nic p)
    (Netsim.Nic.receive (Netsim.Nic.create ~queues:4) p)

let test_nic_counters () =
  let nic = Netsim.Nic.create ~queues:2 in
  let p = Netsim.Packet.make ~tuple:(tuple ()) ~kind:(Netsim.Packet.Data 10) in
  let q = Netsim.Nic.receive nic p in
  let pkts = Netsim.Nic.packets_per_queue nic in
  check Alcotest.int "one packet" 1 pkts.(q);
  check Alcotest.int "other empty" 0 pkts.(1 - q);
  pkts.(q) <- 5;
  check Alcotest.int "a copy" 1 (Netsim.Nic.packets_per_queue nic).(q)

let test_nic_balance () =
  let nic = Netsim.Nic.create ~queues:8 in
  let rng = Engine.Rng.create 2 in
  for _ = 1 to 8000 do
    let t =
      tuple ~src_ip:(Engine.Rng.int rng 0x3FFFFFFF)
        ~src_port:(Engine.Rng.int rng 65536) ()
    in
    ignore (Netsim.Nic.receive nic (Netsim.Packet.make ~tuple:t ~kind:Netsim.Packet.Syn))
  done;
  let counts = Array.map float_of_int (Netsim.Nic.packets_per_queue nic) in
  check Alcotest.bool "fairly balanced" true
    (Stats.Summary.coefficient_of_variation counts < 0.25)

(* ------------------------------------------------------------------ *)
(* L4lb                                                                 *)

let test_l4lb_nat () =
  let tenants = Netsim.Tenant.population ~n:3 ~base_dport:20000 in
  let lb = Netsim.L4lb.create tenants in
  let p =
    Netsim.Packet.encapsulate
      (Netsim.Packet.make ~tuple:(tuple ~dst_port:443 ()) ~kind:Netsim.Packet.Syn)
      ~vni:0x1001
  in
  match Netsim.L4lb.process lb p with
  | Some (p', tn) ->
    check Alcotest.int "tenant 1" 1 tn.Netsim.Tenant.id;
    check Alcotest.int "rewritten port" 20001 p'.Netsim.Packet.tuple.dst_port;
    check Alcotest.(option int) "decapsulated" None p'.Netsim.Packet.vxlan_vni
  | None -> Alcotest.fail "expected NAT hit"

let test_l4lb_unknown_vni_drops () =
  let lb = Netsim.L4lb.create (Netsim.Tenant.population ~n:1 ~base_dport:20000) in
  let p =
    Netsim.Packet.encapsulate
      (Netsim.Packet.make ~tuple:(tuple ()) ~kind:Netsim.Packet.Syn)
      ~vni:0xBEEF
  in
  check Alcotest.bool "dropped" true (Netsim.L4lb.process lb p = None)

let test_l4lb_bare_packet_by_dport () =
  let lb = Netsim.L4lb.create (Netsim.Tenant.population ~n:2 ~base_dport:20000) in
  let p = Netsim.Packet.make ~tuple:(tuple ~dst_port:20001 ()) ~kind:Netsim.Packet.Syn in
  match Netsim.L4lb.process lb p with
  | Some (_, tn) -> check Alcotest.int "matched by dport" 1 tn.Netsim.Tenant.id
  | None -> Alcotest.fail "expected match"

(* Every tenant's NATted dport leads back to that tenant, keeping the
   port; a dport no tenant owns is dropped. *)
let test_l4lb_reverse_lookup () =
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let lb = Netsim.L4lb.create tenants in
  let bare dport =
    Netsim.Packet.make ~tuple:(tuple ~dst_port:dport ()) ~kind:Netsim.Packet.Syn
  in
  Array.iter
    (fun (tn : Netsim.Tenant.t) ->
      match Netsim.L4lb.process lb (bare tn.dport) with
      | Some (p', found) ->
        check Alcotest.int "reverse" tn.id found.Netsim.Tenant.id;
        check Alcotest.int "port kept" tn.dport p'.Netsim.Packet.tuple.dst_port
      | None -> Alcotest.fail "expected tenant")
    tenants;
  check Alcotest.bool "missing port" true (Netsim.L4lb.process lb (bare 9999) = None)

let test_l4lb_duplicate_vni () =
  let t1 = { Netsim.Tenant.id = 0; name = "a"; vni = 7; dport = 100 } in
  let t2 = { t1 with id = 1; name = "b"; dport = 200 } in
  Alcotest.check_raises "duplicate" (Invalid_argument "L4lb.create: duplicate VNI")
    (fun () -> ignore (Netsim.L4lb.create [| t1; t2 |]))

(* NAT rewrite changes the flow hash (the L7 host hashes the new tuple) *)
let test_l4lb_rehash () =
  let lb = Netsim.L4lb.create (Netsim.Tenant.population ~n:1 ~base_dport:20000) in
  let orig = Netsim.Packet.make ~tuple:(tuple ~dst_port:20000 ()) ~kind:Netsim.Packet.Syn in
  match Netsim.L4lb.process lb orig with
  | Some (p', _) ->
    check Alcotest.int "hash of NATted tuple"
      (Netsim.Flow_hash.of_four_tuple p'.Netsim.Packet.tuple)
      p'.Netsim.Packet.flow_hash
  | None -> Alcotest.fail "expected hit"

let () =
  Alcotest.run "netsim"
    [
      ( "addr",
        [
          Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "ip invalid" `Quick test_ip_invalid;
          Alcotest.test_case "octets" `Quick test_ip_octets;
          Alcotest.test_case "tuple equality" `Quick test_four_tuple_equal;
        ] );
      ( "flow_hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "32-bit range" `Quick test_hash_nonnegative_32bit;
          Alcotest.test_case "seed changes" `Quick test_hash_seed_changes;
          Alcotest.test_case "spread" `Quick test_hash_spread;
        ] );
      ( "tenant",
        [ Alcotest.test_case "population" `Quick test_tenant_population ] );
      ( "packet",
        [
          Alcotest.test_case "sizes" `Quick test_packet_sizes;
          Alcotest.test_case "encap fields" `Quick test_packet_encap_fields;
        ] );
      ( "nic",
        [
          Alcotest.test_case "deterministic" `Quick test_nic_deterministic;
          Alcotest.test_case "counters" `Quick test_nic_counters;
          Alcotest.test_case "balance" `Quick test_nic_balance;
        ] );
      ( "l4lb",
        [
          Alcotest.test_case "nat" `Quick test_l4lb_nat;
          Alcotest.test_case "unknown vni" `Quick test_l4lb_unknown_vni_drops;
          Alcotest.test_case "bare by dport" `Quick test_l4lb_bare_packet_by_dport;
          Alcotest.test_case "reverse lookup" `Quick test_l4lb_reverse_lookup;
          Alcotest.test_case "duplicate vni" `Quick test_l4lb_duplicate_vni;
          Alcotest.test_case "rehash after NAT" `Quick test_l4lb_rehash;
        ] );
    ]
