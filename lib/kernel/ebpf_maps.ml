module Array_map = struct
  type t = { map_name : string; cells : int64 Atomic.t array }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Array_map.create: size must be positive";
    { map_name = name; cells = Array.init size (fun _ -> Atomic.make 0L) }

  let name t = t.map_name
  let size t = Array.length t.cells

  let check t key =
    if key < 0 || key >= Array.length t.cells then
      invalid_arg (Printf.sprintf "Array_map %s: key %d out of range" t.map_name key)

  let lookup t key =
    check t key;
    Atomic.get t.cells.(key)

  (* for accesses a verifier certificate already proved in bounds;
     OCaml's own array bounds check remains as a last-resort backstop *)
  let unsafe_lookup t key = Atomic.get t.cells.(key)

  let kernel_update t key v =
    check t key;
    Atomic.set t.cells.(key) v
end

module Sockarray = struct
  type t = { map_name : string; slots : Socket.t option Atomic.t array }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Sockarray.create: size must be positive";
    { map_name = name; slots = Array.init size (fun _ -> Atomic.make None) }

  let name t = t.map_name
  let size t = Array.length t.slots

  let check t key =
    if key < 0 || key >= Array.length t.slots then
      invalid_arg (Printf.sprintf "Sockarray %s: key %d out of range" t.map_name key)

  let set t key sock =
    check t key;
    Atomic.set t.slots.(key) (Some sock)

  let clear t key =
    check t key;
    Atomic.set t.slots.(key) None

  let get t key =
    check t key;
    Atomic.get t.slots.(key)

  let unsafe_get t key = Atomic.get t.slots.(key)
end

module Sockmap = struct
  type entry = { conn : int; target : int }

  type t = { map_name : string; slots : entry option Atomic.t array }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Sockmap.create: size must be positive";
    { map_name = name; slots = Array.init size (fun _ -> Atomic.make None) }

  let name t = t.map_name
  let size t = Array.length t.slots

  let check t key =
    if key < 0 || key >= Array.length t.slots then
      invalid_arg (Printf.sprintf "Sockmap %s: key %d out of range" t.map_name key)

  let set t key ~conn ~target =
    check t key;
    Atomic.set t.slots.(key) (Some { conn; target })

  let clear t key =
    check t key;
    Atomic.set t.slots.(key) None

  let get t key =
    check t key;
    Atomic.get t.slots.(key)

  let unsafe_get t key = Atomic.get t.slots.(key)
end

module Syscall = struct
  let counter = Atomic.make 0

  let update_elem map key v =
    Atomic.incr counter;
    Array_map.kernel_update map key v;
    if Trace.enabled () then
      Trace.emit (Trace.Map_update { map = Array_map.name map; key; value = v })

  let read_elem map key =
    Atomic.incr counter;
    Array_map.lookup map key

  let sock_update map key ~conn ~target =
    Atomic.incr counter;
    Sockmap.set map key ~conn ~target

  let sock_delete map key =
    Atomic.incr counter;
    Sockmap.clear map key

  let count () = Atomic.get counter
  let reset () = Atomic.set counter 0
end
