(* A [Hashtbl]-backed table with [Engine.Conn_table]'s interface, kept
   for the qcheck differential in test_conn_table.ml (random operation
   programs must leave both implementations with the same observable
   contents) and as the before-side of the conn bench rows. *)

type 'a t = {
  dummy : 'a;
  tbl : (int, int) Hashtbl.t; (* key -> slot *)
  mutable slot_aux : int array;
  mutable payloads : 'a array;
  mutable free : int list;
  mutable slot_limit : int;
}

let create ~dummy ?(capacity = 1024) () =
  {
    dummy;
    tbl = Hashtbl.create capacity;
    slot_aux = Array.make (max 8 capacity) 0;
    payloads = Array.make (max 8 capacity) dummy;
    free = [];
    slot_limit = 0;
  }

let length t = Hashtbl.length t.tbl

let find_slot t key = match Hashtbl.find_opt t.tbl key with Some s -> s | None -> -1
let payload t slot = t.payloads.(slot)
let aux t slot = t.slot_aux.(slot)

let ensure t n =
  if n >= Array.length t.payloads then begin
    let cap = max (n + 1) (Array.length t.payloads * 2) in
    let grow_int a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.slot_aux <- grow_int t.slot_aux;
    let p = Array.make cap t.dummy in
    Array.blit t.payloads 0 p 0 (Array.length t.payloads);
    t.payloads <- p
  end

let add t ~key ~aux v =
  if key <= 0 then invalid_arg "Conn_table_ref.add: key must be > 0";
  match Hashtbl.find_opt t.tbl key with
  | Some slot ->
    t.slot_aux.(slot) <- aux;
    t.payloads.(slot) <- v
  | None ->
    let slot =
      match t.free with
      | s :: rest ->
        t.free <- rest;
        s
      | [] ->
        let s = t.slot_limit in
        t.slot_limit <- s + 1;
        ensure t s;
        s
    in
    t.slot_aux.(slot) <- aux;
    t.payloads.(slot) <- v;
    Hashtbl.replace t.tbl key slot

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> false
  | Some slot ->
    Hashtbl.remove t.tbl key;
    t.payloads.(slot) <- t.dummy;
    t.free <- slot :: t.free;
    true

let keys_sorted t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare
