type ip = int
type port = int

let ip_of_octets a b c d =
  let ok x = x >= 0 && x <= 255 in
  if not (ok a && ok b && ok c && ok d) then
    invalid_arg "Addr.ip_of_octets: octet out of range";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    try
      let oct x =
        let v = int_of_string x in
        if v < 0 || v > 255 then failwith "octet";
        v
      in
      ip_of_octets (oct a) (oct b) (oct c) (oct d)
    with _ -> invalid_arg ("Addr.ip_of_string: " ^ s))
  | _ -> invalid_arg ("Addr.ip_of_string: " ^ s)

let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xFF) ((ip lsr 16) land 0xFF)
    ((ip lsr 8) land 0xFF) (ip land 0xFF)

type four_tuple = {
  src_ip : ip;
  src_port : port;
  dst_ip : ip;
  dst_port : port;
}

let pp_four_tuple fmt t =
  Format.fprintf fmt "%s:%d -> %s:%d" (ip_to_string t.src_ip) t.src_port
    (ip_to_string t.dst_ip) t.dst_port

let https_port = 443
