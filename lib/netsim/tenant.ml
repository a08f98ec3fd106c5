type t = { id : int; name : string; vni : int; dport : Addr.port }

let population ~n ~base_dport =
  Array.init n (fun i ->
      { id = i; name = Printf.sprintf "tenant-%d" i; vni = 0x1000 + i; dport = base_dport + i })

let pp fmt t =
  Format.fprintf fmt "%s(vni=%#x dport=%d)" t.name t.vni t.dport
