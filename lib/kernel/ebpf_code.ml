(* The compiled form of every eBPF program.

   A program runs as threaded code over an unboxed 64-bit register
   file: a [Bytes.t] read and written 8 bytes at a time by the raw
   primitives below, as [Engine.Rng] holds its state, so no value is
   ever boxed.  Slot 0 holds the flow hash and slot 1 the destination
   port; a constant has a slot of its own, loaded once when the program
   is finished and never written.  The file is never re-zeroed between
   runs: each front end only reads a slot after writing it on the same
   path.

   A step is one closure that charges the cycles its front end gave it,
   does its operator's work (its fault check first) and tail-calls the
   next step; a chain ends in a verdict, which returns the exit code.
   A faultable operator has a checked body, and an unchecked one for a
   site the verifier's certificate proved safe. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let copy_limit = 65536

type state = {
  mutable regs : Bytes.t;  (* sized when the program is finished *)
  mutable cycles : int;
  mutable sel : Socket.t option;  (* the sockarray's own [Some] cell *)
  mutable redir : Ebpf_maps.Sockmap.entry option;  (* the sockmap's own cell *)
  mutable copy_len : int;
}

type k = unit -> int
type t = { st : state; entry : k }

exception Fault

type file = { state : state; mutable next : int; mutable consts : (int * int64) list }

let file () =
  {
    state = { regs = Bytes.empty; cycles = 0; sel = None; redir = None; copy_len = 0 };
    next = 2;
    consts = [];
  }

let flow_hash = 0
let dst_port = 1

let reg f =
  let r = f.next in
  f.next <- r + 1;
  r

let const f v =
  let r = reg f in
  f.consts <- (r, v) :: f.consts;
  r

let finish f entry =
  let st = f.state in
  st.regs <- Bytes.make (f.next lsl 3) '\000';
  List.iter (fun (r, v) -> set64 st.regs (r lsl 3) v) f.consts;
  { st; entry }

type op =
  | Mov
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Lsh
  | Rsh
  | Mod
  | Popcount
  | Find_nth
  | Recip
  | Lookup of Ebpf_maps.Array_map.t
  | Select of Ebpf_maps.Sockarray.t
  | Redirect of Ebpf_maps.Sockmap.t
  | Copy

let[@inline] charge st c = st.cycles <- st.cycles + c

let[@inline] shift_amount r b =
  let s = Int64.to_int (get64 r b) in
  if s < 0 || s > 63 then raise_notrace Fault;
  s

let[@inline] key r a size =
  let k = Int64.to_int (get64 r a) in
  if k < 0 || k >= size then raise_notrace Fault;
  k

let step f ?(proved = false) op ~cost ~a ?(b = a) ~dst next =
  let st = f.state and a = a lsl 3 and b = b lsl 3 and dst = dst lsl 3 in
  match op with
  | Mov ->
    fun () ->
      charge st cost;
      set64 st.regs dst (get64 st.regs a);
      next ()
  | Add ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.add (get64 st.regs a) (get64 st.regs b));
      next ()
  | Sub ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.sub (get64 st.regs a) (get64 st.regs b));
      next ()
  | Mul ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.mul (get64 st.regs a) (get64 st.regs b));
      next ()
  | And ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.logand (get64 st.regs a) (get64 st.regs b));
      next ()
  | Or ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.logor (get64 st.regs a) (get64 st.regs b));
      next ()
  | Xor ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.logxor (get64 st.regs a) (get64 st.regs b));
      next ()
  | Lsh when proved ->
    fun () ->
      charge st cost;
      set64 st.regs dst
        (Int64.shift_left (get64 st.regs a) (Int64.to_int (get64 st.regs b)));
      next ()
  | Lsh ->
    fun () ->
      charge st cost;
      let s = shift_amount st.regs b in
      set64 st.regs dst (Int64.shift_left (get64 st.regs a) s);
      next ()
  | Rsh when proved ->
    fun () ->
      charge st cost;
      set64 st.regs dst
        (Int64.shift_right_logical (get64 st.regs a) (Int64.to_int (get64 st.regs b)));
      next ()
  | Rsh ->
    fun () ->
      charge st cost;
      let s = shift_amount st.regs b in
      set64 st.regs dst (Int64.shift_right_logical (get64 st.regs a) s);
      next ()
  | Mod when proved ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.rem (get64 st.regs a) (get64 st.regs b));
      next ()
  | Mod ->
    fun () ->
      charge st cost;
      let d = get64 st.regs b in
      (* BPF_MOD: a zero divisor faults *)
      if Int64.equal d 0L then raise_notrace Fault;
      set64 st.regs dst (Int64.rem (get64 st.regs a) d);
      next ()
  | Popcount ->
    fun () ->
      charge st cost;
      let v = get64 st.regs a in
      set64 st.regs dst
        (Int64.of_int
           (Bitops.popcount32 (Int64.to_int v land 0xFFFFFFFF)
           + Bitops.popcount32 (Int64.to_int (Int64.shift_right_logical v 32))));
      next ()
  | Find_nth ->
    fun () ->
      charge st cost;
      let bm = get64 st.regs a in
      set64 st.regs dst
        (Int64.of_int
           (Bitops.find_nth_set_halves
              ~lo:(Int64.to_int bm land 0xFFFFFFFF)
              ~hi:(Int64.to_int (Int64.shift_right_logical bm 32))
              (Int64.to_int (get64 st.regs b))));
      next ()
  | Recip ->
    (* no certificate covers the divisor: always checked *)
    fun () ->
      charge st cost;
      let n = Int64.to_int (get64 st.regs b) in
      if n <= 0 then raise_notrace Fault;
      set64 st.regs dst
        (Int64.of_int (Bitops.reciprocal_scale ~hash:(Int64.to_int (get64 st.regs a)) ~n));
      next ()
  | Lookup map when proved ->
    fun () ->
      charge st cost;
      set64 st.regs dst
        (Ebpf_maps.Array_map.unsafe_lookup map (Int64.to_int (get64 st.regs a)));
      next ()
  | Lookup map ->
    let size = Ebpf_maps.Array_map.size map in
    fun () ->
      charge st cost;
      set64 st.regs dst (Ebpf_maps.Array_map.unsafe_lookup map (key st.regs a size));
      next ()
  | Select sa when proved ->
    fun () ->
      charge st cost;
      (match Ebpf_maps.Sockarray.unsafe_get sa (Int64.to_int (get64 st.regs a)) with
      | None -> raise_notrace Fault
      | Some _ as cell -> st.sel <- cell);
      set64 st.regs dst 0L;
      next ()
  | Select sa ->
    let size = Ebpf_maps.Sockarray.size sa in
    fun () ->
      charge st cost;
      (match Ebpf_maps.Sockarray.unsafe_get sa (key st.regs a size) with
      | None -> raise_notrace Fault
      | Some _ as cell -> st.sel <- cell);
      set64 st.regs dst 0L;
      next ()
  | Redirect map when proved ->
    fun () ->
      charge st cost;
      (match Ebpf_maps.Sockmap.unsafe_get map (Int64.to_int (get64 st.regs a)) with
      | None -> set64 st.regs dst 0L
      | Some _ as cell ->
        st.redir <- cell;
        set64 st.regs dst 1L);
      next ()
  | Redirect map ->
    let size = Ebpf_maps.Sockmap.size map in
    fun () ->
      charge st cost;
      (match Ebpf_maps.Sockmap.unsafe_get map (key st.regs a size) with
      | None -> set64 st.regs dst 0L
      | Some _ as cell ->
        st.redir <- cell;
        set64 st.regs dst 1L);
      next ()
  | Copy when proved ->
    fun () ->
      charge st cost;
      let n = get64 st.regs a in
      st.copy_len <- Int64.to_int n;
      set64 st.regs dst n;
      next ()
  | Copy ->
    fun () ->
      charge st cost;
      let n = get64 st.regs a in
      let c = Int64.to_int n in
      if c < 0 || c > copy_limit then raise_notrace Fault;
      st.copy_len <- c;
      set64 st.regs dst n;
      next ()

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* A compare as a mask over the three orderings: bit 0 less, bit 1
   equal, bit 2 greater. *)
let cmp_mask = function Eq -> 2 | Ne -> 5 | Lt -> 1 | Le -> 3 | Gt -> 4 | Ge -> 6

let[@inline] holds mask (x : int64) (y : int64) =
  (mask lsr (1 + Bool.to_int (x > y) - Bool.to_int (x < y))) land 1 <> 0

let branch f cmp ~cost ~a ~b yes no =
  let st = f.state and a = a lsl 3 and b = b lsl 3 and mask = cmp_mask cmp in
  fun () ->
    charge st cost;
    if holds mask (get64 st.regs a) (get64 st.regs b) then yes () else no ()

let jump f ~cost next =
  let st = f.state in
  fun () ->
    charge st cost;
    next ()

let exit f ~cost code =
  let st = f.state in
  fun () ->
    charge st cost;
    code

let exit_reg f ~cost ~pass ~drop ~redirect r =
  let st = f.state and r = r lsl 3 in
  fun () ->
    charge st cost;
    let v = get64 st.regs r in
    if Int64.equal v pass then match st.sel with None -> raise_notrace Fault | Some _ -> 1
    else if Int64.equal v drop then 2
    else if Int64.equal v redirect then
      match st.redir with None -> raise_notrace Fault | Some _ -> 3
    else 0

let fault () = raise_notrace Fault

let exec t ~flow_hash ~dst_port =
  let st = t.st in
  set64 st.regs 0 (Int64.of_int flow_hash);
  set64 st.regs 8 (Int64.of_int dst_port);
  st.sel <- None;
  st.redir <- None;
  st.copy_len <- 0;
  st.cycles <- 0;
  match t.entry () with code -> code | exception Fault -> 0

let last_cycles t = t.st.cycles
let selected t = t.st.sel
let redirected t = t.st.redir
let copy_len t = t.st.copy_len
