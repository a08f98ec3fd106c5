type t = {
  by_vni : (int, Tenant.t) Hashtbl.t;
  by_dport : (Addr.port, Tenant.t) Hashtbl.t;
}

let create tenants =
  let by_vni = Hashtbl.create 64 and by_dport = Hashtbl.create 64 in
  Array.iter
    (fun (tn : Tenant.t) ->
      if Hashtbl.mem by_vni tn.vni then
        invalid_arg "L4lb.create: duplicate VNI";
      Hashtbl.replace by_vni tn.vni tn;
      Hashtbl.replace by_dport tn.dport tn)
    tenants;
  { by_vni; by_dport }

let process t (p : Packet.t) =
  let tenant =
    match p.vxlan_vni with
    | Some vni -> Hashtbl.find_opt t.by_vni vni
    | None -> Hashtbl.find_opt t.by_dport p.tuple.dst_port
  in
  match tenant with
  | None -> None
  | Some tn ->
    let p = Packet.decapsulate p in
    let tuple = { p.tuple with dst_port = tn.dport } in
    (* The flow hash is recomputed after rewriting, as the L7 host's
       kernel sees the NATted tuple. *)
    Some (Packet.make ~tuple ~kind:p.kind, tn)
