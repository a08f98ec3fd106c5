(* A map's 64-bit cells live unboxed in a [Bytes.t], 8 bytes each, read
   and written by the raw primitives below: a bitmap push stores no
   fresh box into a major-heap array, and an inlined kernel-side lookup
   hands its caller an unboxed value. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

module Array_map = struct
  type t = { map_name : string; size : int; cells : Bytes.t }

  let create ~name ~size =
    if size <= 0 then invalid_arg "Array_map.create: size must be positive";
    { map_name = name; size; cells = Bytes.make (8 * size) '\000' }

  let name t = t.map_name
  let size t = t.size

  let check t key =
    if key < 0 || key >= t.size then
      invalid_arg (Printf.sprintf "Array_map %s: key %d out of range" t.map_name key)

  let[@inline] lookup t key =
    check t key;
    get64 t.cells (key lsl 3)

  (* for accesses a verifier certificate already proved in bounds;
     the bytes primitive's own bounds check remains as a last-resort
     backstop *)
  let[@inline] unsafe_lookup t key = get64 t.cells (key lsl 3)

  let[@inline] kernel_update t key v =
    check t key;
    set64u t.cells (key lsl 3) v
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
  let emit_update map key value =
    Trace.emit (Trace.Map_update { map = Array_map.name map; key; value })

  (* Inlined, so a caller's unboxed bitmap reaches the cell unboxed. *)
  let[@inline] update_elem map key v =
    Array_map.kernel_update map key v;
    if Trace.enabled () then emit_update map key v
end
