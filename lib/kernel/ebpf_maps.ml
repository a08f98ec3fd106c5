module Array_map = struct
  type t = { map_name : string; cells : int64 array }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Array_map.create: size must be positive";
    { map_name = name; cells = Array.make size 0L }

  let name t = t.map_name
  let size t = Array.length t.cells

  let check t key =
    if key < 0 || key >= Array.length t.cells then
      invalid_arg (Printf.sprintf "Array_map %s: key %d out of range" t.map_name key)

  let lookup t key =
    check t key;
    t.cells.(key)

  (* for accesses a verifier certificate already proved in bounds;
     OCaml's own array bounds check remains as a last-resort backstop *)
  let unsafe_lookup t key = t.cells.(key)

  let kernel_update t key v =
    check t key;
    t.cells.(key) <- v
end

module Sockarray = struct
  type t = { map_name : string; slots : Socket.t option array }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Sockarray.create: size must be positive";
    { map_name = name; slots = Array.make size None }

  let name t = t.map_name
  let size t = Array.length t.slots

  let check t key =
    if key < 0 || key >= Array.length t.slots then
      invalid_arg (Printf.sprintf "Sockarray %s: key %d out of range" t.map_name key)

  let set t key sock =
    check t key;
    t.slots.(key) <- Some sock

  let clear t key =
    check t key;
    t.slots.(key) <- None

  let get t key =
    check t key;
    t.slots.(key)

  let unsafe_get t key = t.slots.(key)
end

module Sockmap = struct
  type entry = { conn : int; target : int }

  type t = { map_name : string; slots : entry option array }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Sockmap.create: size must be positive";
    { map_name = name; slots = Array.make size None }

  let name t = t.map_name
  let size t = Array.length t.slots

  let check t key =
    if key < 0 || key >= Array.length t.slots then
      invalid_arg (Printf.sprintf "Sockmap %s: key %d out of range" t.map_name key)

  let set t key ~conn ~target =
    check t key;
    t.slots.(key) <- Some { conn; target }

  let clear t key =
    check t key;
    t.slots.(key) <- None

  let get t key =
    check t key;
    t.slots.(key)

  let unsafe_get t key = t.slots.(key)
end

module Syscall = struct
  let update_elem map key v =
    Array_map.kernel_update map key v;
    if Trace.enabled () then
      Trace.emit (Trace.Map_update { map = Array_map.name map; key; value = v })
end
