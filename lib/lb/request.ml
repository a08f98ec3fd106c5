type op =
  | Plain_proxy
  | Ssl_handshake
  | Ssl_record
  | Compress
  | Regex_route
  | Websocket_frame
  | Protocol_translate

type kind = Work of op | Close

type t = {
  id : int;
  kind : kind;
  size : int;
  cost : Engine.Sim_time.t;
  tenant_id : int;
  mutable arrival : Engine.Sim_time.t;
}

let make ~id ~op ~size ~cost ~tenant_id =
  if size < 0 then invalid_arg "Request.make: negative size";
  if cost < 0 then invalid_arg "Request.make: negative cost";
  { id; kind = Work op; size; cost; tenant_id; arrival = 0 }

let close_marker ~id ~tenant_id =
  { id; kind = Close; size = 0; cost = Cost.close_cost; tenant_id; arrival = 0 }

let is_close t = match t.kind with Close -> true | Work _ -> false

let op_name = function
  | Plain_proxy -> "plain"
  | Ssl_handshake -> "ssl-handshake"
  | Ssl_record -> "ssl-record"
  | Compress -> "compress"
  | Regex_route -> "regex-route"
  | Websocket_frame -> "websocket"
  | Protocol_translate -> "translate"

let op_of_name = function
  | "plain" -> Some Plain_proxy
  | "ssl-handshake" -> Some Ssl_handshake
  | "ssl-record" -> Some Ssl_record
  | "compress" -> Some Compress
  | "regex-route" -> Some Regex_route
  | "websocket" -> Some Websocket_frame
  | "translate" -> Some Protocol_translate
  | _ -> None

(* Base/per-KB costs per op class, loosely calibrated so a plain proxy
   request costs tens of microseconds while SSL handshakes and
   compression reach the millisecond scale of Table 1. *)
let default_cost op ~size =
  let us = Engine.Sim_time.us in
  match op with
  | Plain_proxy -> Cost.of_bytes ~op_base:(us 30) ~per_kb:(us 2) size
  | Ssl_handshake -> Cost.of_bytes ~op_base:(us 1200) ~per_kb:(us 1) size
  | Ssl_record -> Cost.of_bytes ~op_base:(us 40) ~per_kb:(us 12) size
  | Compress -> Cost.of_bytes ~op_base:(us 80) ~per_kb:(us 45) size
  | Regex_route -> Cost.of_bytes ~op_base:(us 250) ~per_kb:(us 6) size
  | Websocket_frame -> Cost.of_bytes ~op_base:(us 15) ~per_kb:(us 2) size
  | Protocol_translate -> Cost.of_bytes ~op_base:(us 120) ~per_kb:(us 8) size
