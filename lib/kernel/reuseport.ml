type stats = {
  selected_by_prog : int;
  selected_by_hash : int;
  dropped : int;
  prog_cycles : int;
  prog_cycles_select : int;
  prog_cycles_fallback : int;
  prog_cycles_drop : int;
}

type t = {
  group_port : Netsim.Addr.port;
  members : Socket.t option array;
  (* Rank-select acceleration for the default hash fallback: bit [i] of
     [live_bm] is set iff slot [i] is bound, and the [0, n) prefix of
     [dense_socks]/[dense_slot] lists the live members in slot order —
     i.e. [dense_slot.(k) = Bitops.find_nth_set live_bm (k+1)], the
     precomputed rank-select the per-packet path would otherwise
     recompute.  Updated on bind/unbind (cold), read-only per packet. *)
  mutable live_bm : int64;
  dense_socks : Socket.t option array;
  dense_slot : int array;
  mutable prog : Ebpf_code.t option;
  mutable prog_name : string;
  mutable prog_fault : bool;
  mutable by_prog : int;
  mutable by_hash : int;
  mutable drop_count : int;
  mutable cycles : int;
  mutable cyc_select : int;
  mutable cyc_fallback : int;
  mutable cyc_drop : int;
}

let create ~port ~slots =
  if slots <= 0 || slots > 64 then
    invalid_arg "Reuseport.create: slots must be in 1..64";
  {
    group_port = port;
    members = Array.make slots None;
    live_bm = 0L;
    dense_socks = Array.make slots None;
    dense_slot = Array.make slots (-1);
    prog = None;
    prog_name = "";
    prog_fault = false;
    by_prog = 0;
    by_hash = 0;
    drop_count = 0;
    cycles = 0;
    cyc_select = 0;
    cyc_fallback = 0;
    cyc_drop = 0;
  }

let slots t = Array.length t.members

let rebuild_dense t =
  let n = ref 0 in
  Array.iteri
    (fun slot m ->
      match m with
      | Some _ as r ->
        t.dense_socks.(!n) <- r;
        t.dense_slot.(!n) <- slot;
        incr n
      | None -> ())
    t.members;
  for i = !n to Array.length t.dense_socks - 1 do
    t.dense_socks.(i) <- None;
    t.dense_slot.(i) <- -1
  done

let bind t ~slot ~socket =
  if slot < 0 || slot >= Array.length t.members then
    invalid_arg "Reuseport.bind: slot out of range";
  (match t.members.(slot) with
  | Some _ -> invalid_arg "Reuseport.bind: slot taken"
  | None -> ());
  if Socket.port socket <> t.group_port then
    invalid_arg "Reuseport.bind: socket port differs from group port";
  let cell = Some socket in
  t.members.(slot) <- cell;
  if Int64.equal (Int64.shift_right_logical t.live_bm slot) 0L then begin
    (* above every live slot: the dense prefix grows by one *)
    let n = Bitops.popcount64 t.live_bm in
    t.dense_socks.(n) <- cell;
    t.dense_slot.(n) <- slot
  end
  else rebuild_dense t;
  t.live_bm <- Bitops.set_bit t.live_bm slot

let unbind t ~slot =
  if slot < 0 || slot >= Array.length t.members then
    invalid_arg "Reuseport.unbind: slot out of range";
  t.members.(slot) <- None;
  t.live_bm <- Bitops.clear_bit t.live_bm slot;
  rebuild_dense t

let member t ~slot = t.members.(slot)
let live_bitmap t = t.live_bm

let attach_ebpf t ~name prog =
  t.prog <- Some prog;
  t.prog_name <- name

(* SO_ATTACH_REUSEPORT_EBPF proper: raw bytecode goes through the
   abstract-interpretation verifier at attach time, and only a
   certified program is installed, closure-compiled. *)
let attach t ~name code =
  match Verifier.verify ~name code with
  | Ok (vm, _report) ->
    attach_ebpf t ~name (Ebpf_jit.compile vm);
    Ok ()
  | Error e -> Error e

(* Fault injection: an attached program that faults at run time (or an
   attach that failed and left no program) must never take the data
   path down — the kernel contract is that selection degrades to the
   default hash.  While the flag is set, [select] behaves exactly as
   if every program run faulted: straight to [fallback_select]. *)
let set_prog_fault t faulted = t.prog_fault <- faulted

(* Member slot of a program-selected socket, for the trace (the
   sockarray the program indexed holds the same sockets as the group's
   member table): a scan of at most 64 members, run only when
   tracing. *)
let slot_of_socket t sock =
  let rec scan i =
    if i = Array.length t.members then -1
    else
      match t.members.(i) with
      | Some s when s == sock -> i
      | Some _ | None -> scan (i + 1)
  in
  scan 0

(* Default kernel behaviour: index the live members (bind order) by
   reciprocal_scale of the flow hash.  The dense prefix makes this a
   popcount plus one indexed load, instead of the retired per-packet
   list build + List.nth walk; the returned option is the member
   table's own cell, so the steady-state path does not allocate. *)
let fallback_select t ~flow_hash =
  let n = Bitops.popcount64 t.live_bm in
  if n = 0 then None
  else begin
    let idx = Bitops.reciprocal_scale ~hash:flow_hash ~n in
    t.by_hash <- t.by_hash + 1;
    if Trace.enabled () then
      Trace.emit
        (Trace.Rp_select
           {
             port = t.group_port;
             flow_hash;
             via = Trace.Hash;
             slot = Array.unsafe_get t.dense_slot idx;
           });
    Array.unsafe_get t.dense_socks idx
  end

let emit_prog_run t ~flow_hash ~cycles outcome =
  Trace.emit (Trace.Prog_run { prog = t.prog_name; flow_hash; outcome; cycles })

let select t ~flow_hash =
  match t.prog with
  | Some p when not t.prog_fault ->
    let code = Ebpf_code.exec p ~flow_hash ~dst_port:t.group_port in
    let cycles = Ebpf_code.last_cycles p in
    t.cycles <- t.cycles + cycles;
    if code = 1 then begin
      t.by_prog <- t.by_prog + 1;
      t.cyc_select <- t.cyc_select + cycles;
      (if Trace.enabled () then
         match Ebpf_code.selected p with
         | Some sock ->
           emit_prog_run t ~flow_hash ~cycles Trace.Select;
           Trace.emit
             (Trace.Rp_select
                {
                  port = t.group_port;
                  flow_hash;
                  via = Trace.Prog;
                  slot = slot_of_socket t sock;
                })
         | None -> (* a pass always carries its selection *) assert false);
      Ebpf_code.selected p
    end
    else if code = 2 then begin
      t.drop_count <- t.drop_count + 1;
      t.cyc_drop <- t.cyc_drop + cycles;
      if Trace.enabled () then begin
        emit_prog_run t ~flow_hash ~cycles Trace.Drop;
        Trace.emit (Trace.Rp_drop { port = t.group_port; flow_hash })
      end;
      None
    end
    else begin
      (* a redirect verdict is meaningless at SYN selection time; the
         kernel treats an unexpected return code as a fallback *)
      t.cyc_fallback <- t.cyc_fallback + cycles;
      if Trace.enabled () then
        emit_prog_run t ~flow_hash ~cycles
          (if code = 3 then Trace.Redirect else Trace.Fallback);
      fallback_select t ~flow_hash
    end
  | Some _ | None -> fallback_select t ~flow_hash

let stats t =
  {
    selected_by_prog = t.by_prog;
    selected_by_hash = t.by_hash;
    dropped = t.drop_count;
    prog_cycles = t.cycles;
    prog_cycles_select = t.cyc_select;
    prog_cycles_fallback = t.cyc_fallback;
    prog_cycles_drop = t.cyc_drop;
  }
