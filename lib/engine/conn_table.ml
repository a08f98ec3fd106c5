type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type 'a t = {
  dummy : 'a;
  (* Open-addressing index: position -> key (0 empty) and slot id. *)
  mutable keys : ints;
  mutable islots : ints;
  mutable mask : int;
  mutable count : int;
  (* Slot store: parallel per-entry arrays, recycled via a free list. *)
  mutable slot_key : ints;
  mutable slot_aux : ints;
  mutable payloads : 'a array;
  mutable next_free : ints;
  mutable free_head : int;
  mutable slot_limit : int; (* first never-used slot *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

(* Fibonacci-style multiplicative hash; the constant is the golden
   ratio scaled to 60 bits (OCaml ints are 63-bit, literals must stay
   under 2^62). *)
let hash_key k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let home t k = hash_key k land t.mask

(* The probe loops live at top level, with all state passed as
   arguments: a local [let rec] capturing [t] or [key] costs a closure
   allocation per call, and connection open/close must not touch the
   minor heap at all (the conn_open_close bench gates on exactly
   zero). *)
let rec probe_find (keys : ints) (islots : ints) mask key i =
  let k = Bigarray.Array1.unsafe_get keys i in
  if k = key then Bigarray.Array1.unsafe_get islots i
  else if k = 0 then -1
  else probe_find keys islots mask key ((i + 1) land mask)

let rec probe_pos (keys : ints) mask key i =
  let k = Bigarray.Array1.unsafe_get keys i in
  if k = key then i
  else if k = 0 then -1
  else probe_pos keys mask key ((i + 1) land mask)

let rec probe_empty (keys : ints) mask i =
  if Bigarray.Array1.unsafe_get keys i = 0 then i
  else probe_empty keys mask ((i + 1) land mask)

(* Backward-shift deletion keeps probe chains gap-free without
   tombstones: walk forward from the hole at [j], pulling back any
   entry whose home lies outside the would-be gap. *)
let rec backshift (keys : ints) (islots : ints) mask j i =
  let i = (i + 1) land mask in
  let k = Bigarray.Array1.unsafe_get keys i in
  if k = 0 then Bigarray.Array1.unsafe_set keys j 0
  else begin
    let h = hash_key k land mask in
    if (i - h) land mask >= (i - j) land mask then begin
      Bigarray.Array1.unsafe_set keys j k;
      Bigarray.Array1.unsafe_set islots j (Bigarray.Array1.unsafe_get islots i);
      backshift keys islots mask i i
    end
    else backshift keys islots mask j i
  end

let create ~dummy ?(capacity = 1024) () =
  let cap = pow2 (max 8 capacity) 8 in
  let keys = make_ints cap in
  Bigarray.Array1.fill keys 0;
  {
    dummy;
    keys;
    islots = make_ints cap;
    mask = cap - 1;
    count = 0;
    slot_key = make_ints cap;
    slot_aux = make_ints cap;
    payloads = Array.make cap dummy;
    next_free = make_ints cap;
    free_head = -1;
    slot_limit = 0;
  }

let length t = t.count

let find_slot t key = probe_find t.keys t.islots t.mask key (home t key)

let mem t key = find_slot t key >= 0
let payload t slot = t.payloads.(slot)
let aux t slot = Bigarray.Array1.get t.slot_aux slot
let set_aux t slot v = Bigarray.Array1.set t.slot_aux slot v

(* Insert into the index only (slot already filled). *)
let index_insert t key slot =
  let i = probe_empty t.keys t.mask (home t key) in
  Bigarray.Array1.unsafe_set t.keys i key;
  Bigarray.Array1.unsafe_set t.islots i slot

let grow t =
  let old_cap = t.mask + 1 in
  let cap = old_cap * 2 in
  let old_keys = t.keys and old_islots = t.islots in
  let keys = make_ints cap in
  Bigarray.Array1.fill keys 0;
  t.keys <- keys;
  t.islots <- make_ints cap;
  t.mask <- cap - 1;
  (* Slot arrays track index capacity (load factor < 1 guarantees
     slots fit). *)
  let grow_ints (a : ints) =
    let b = make_ints cap in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 old_cap);
    b
  in
  t.slot_key <- grow_ints t.slot_key;
  t.slot_aux <- grow_ints t.slot_aux;
  t.next_free <- grow_ints t.next_free;
  let payloads = Array.make cap t.dummy in
  Array.blit t.payloads 0 payloads 0 old_cap;
  t.payloads <- payloads;
  for i = 0 to old_cap - 1 do
    let k = Bigarray.Array1.unsafe_get old_keys i in
    if k <> 0 then index_insert t k (Bigarray.Array1.unsafe_get old_islots i)
  done

let add t ~key ~aux v =
  if key <= 0 then invalid_arg "Conn_table.add: key must be > 0";
  let slot = find_slot t key in
  if slot >= 0 then begin
    Bigarray.Array1.set t.slot_aux slot aux;
    t.payloads.(slot) <- v
  end
  else begin
    if (t.count + 1) * 4 > (t.mask + 1) * 3 then grow t;
    let slot =
      if t.free_head >= 0 then begin
        let s = t.free_head in
        t.free_head <- Bigarray.Array1.get t.next_free s;
        s
      end
      else begin
        let s = t.slot_limit in
        t.slot_limit <- s + 1;
        s
      end
    in
    Bigarray.Array1.set t.slot_key slot key;
    Bigarray.Array1.set t.slot_aux slot aux;
    t.payloads.(slot) <- v;
    index_insert t key slot;
    t.count <- t.count + 1
  end

let remove t key =
  if key <= 0 then false
  else begin
    let pos = probe_pos t.keys t.mask key (home t key) in
    if pos < 0 then false
    else begin
      let slot = Bigarray.Array1.get t.islots pos in
      (* Release the slot: clear the payload so dead connections never
         pin closures or buffers, thread onto the free list. *)
      t.payloads.(slot) <- t.dummy;
      Bigarray.Array1.set t.next_free slot t.free_head;
      t.free_head <- slot;
      t.count <- t.count - 1;
      backshift t.keys t.islots t.mask pos pos;
      true
    end
  end

let iter t f =
  for i = 0 to t.mask do
    let k = Bigarray.Array1.unsafe_get t.keys i in
    if k <> 0 then f ~key:k ~slot:(Bigarray.Array1.unsafe_get t.islots i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~key ~slot -> acc := f !acc ~key ~slot);
  !acc
