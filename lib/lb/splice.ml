(* Splice-mode control plane: the sockmap, the verified redirect
   program, and the userspace bookkeeping that must stay in sync with
   both.  See splice.mli for the protocol. *)

module Conn_table = Engine.Conn_table

type stats = {
  mutable attaches : int;
  mutable collisions : int;
  mutable redirects : int;
  mutable fallbacks : int;
  mutable desync_blocked : int;
  mutable teardowns : int;
  mutable prog_cycles : int;
  mutable splice_cycles : int;
  mutable redirected_bytes : int;
  mutable copied_bytes : int;
}

type decision =
  | Redirect of { conn : int; worker : int; copied : int; cycles : int }
  | Fallback

type t = {
  map : Kernel.Ebpf_maps.Sockmap.t;
  jit : Kernel.Ebpf_jit.t;
  verified : Kernel.Ebpf_vm.verified;
  (* conn id -> (sockmap key, worker): what userspace believes is
     installed.  The differential against the map itself is the whole
     point — desync faults make them disagree. *)
  spliced : Conn_table.Dense.t;
  desynced : bool array;
  mutable strict : bool;
  stats : stats;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ~workers ?(slots = 4096) ?(copy = 0) () =
  if workers <= 0 then invalid_arg "Splice.create: workers must be positive";
  if slots <= 0 then invalid_arg "Splice.create: slots must be positive";
  (* Power-of-two slot count: the program masks the flow hash, which
     is what lets the verifier discharge the Sockmap_key obligation
     statically (zero residual runtime checks). *)
  let size = pow2 slots 8 in
  let map = Kernel.Ebpf_maps.Sockmap.create ~name:"M_splice" ~size in
  let prog = Hermes.Dispatch.splice_prog ~m_splice:map ~copy () in
  match Kernel.Verifier.compile_and_verify prog with
  | Error e ->
    invalid_arg ("Splice.create: " ^ Kernel.Verifier.error_to_string e)
  | Ok verified ->
    if not (Kernel.Ebpf_vm.fully_proved verified) then
      invalid_arg "Splice.create: splice program left residual checks";
    {
      map;
      jit = Kernel.Ebpf_jit.compile verified;
      verified;
      spliced = Conn_table.Dense.create ~capacity:1024 ();
      desynced = Array.make workers false;
      strict = true;
      stats =
        {
          attaches = 0;
          collisions = 0;
          redirects = 0;
          fallbacks = 0;
          desync_blocked = 0;
          teardowns = 0;
          prog_cycles = 0;
          splice_cycles = 0;
          redirected_bytes = 0;
          copied_bytes = 0;
        };
    }

let slots t = Kernel.Ebpf_maps.Sockmap.size t.map
let attached t = Conn_table.Dense.length t.spliced
let is_attached t ~conn = Conn_table.Dense.mem t.spliced conn
let stats t = t.stats
let set_strict t v = t.strict <- v
let set_desynced t ~worker v = t.desynced.(worker) <- v
let residual_checks t = Kernel.Ebpf_vm.residual_checks t.verified

let key_of t ~flow_hash = flow_hash land (slots t - 1)

let attach t ~conn ~flow_hash ~worker =
  if conn <= 0 then invalid_arg "Splice.attach: conn id must be positive";
  if Conn_table.Dense.mem t.spliced conn then None
  else begin
    let key = key_of t ~flow_hash in
    match Kernel.Ebpf_maps.Sockmap.get t.map key with
    | Some e when e.Kernel.Ebpf_maps.Sockmap.conn <> conn ->
      (* Slot already carries another connection.  Strict userspace
         checks the update outcome and keeps the newcomer on the proxy
         path; sloppy userspace records success it never had — the
         stale entry then redirects the newcomer's bytes to whatever
         the slot still names. *)
      t.stats.collisions <- t.stats.collisions + 1;
      if t.strict then None
      else begin
        Conn_table.Dense.set t.spliced ~key:conn ~a:key ~b:worker;
        t.stats.attaches <- t.stats.attaches + 1;
        Some key
      end
    | Some _ | None ->
      Kernel.Ebpf_maps.Syscall.sock_update t.map key ~conn ~target:worker;
      Conn_table.Dense.set t.spliced ~key:conn ~a:key ~b:worker;
      t.stats.attaches <- t.stats.attaches + 1;
      Some key
  end

let teardown t ~conn =
  if not (Conn_table.Dense.mem t.spliced conn) then None
  else begin
    let key = Conn_table.Dense.get_a t.spliced conn in
    let worker = Conn_table.Dense.get_b t.spliced conn in
    Conn_table.Dense.remove t.spliced conn;
    t.stats.teardowns <- t.stats.teardowns + 1;
    (* A desynced worker models the lost sock_delete: userspace
       bookkeeping moves on, the kernel map keeps the entry.  Only
       delete the slot if it still names this connection — a later
       attach may have legitimately reused it. *)
    (if not t.desynced.(worker) then
       match Kernel.Ebpf_maps.Sockmap.get t.map key with
       | Some e when e.Kernel.Ebpf_maps.Sockmap.conn = conn ->
         Kernel.Ebpf_maps.Syscall.sock_delete t.map key
       | Some _ | None -> ());
    Some (key, worker)
  end

let teardown_worker t ~worker =
  let victims = ref [] in
  Conn_table.Dense.iter t.spliced (fun ~key:conn ~a:_ ~b:w ->
      if w = worker then victims := conn :: !victims);
  List.fold_left
    (fun acc conn ->
      match teardown t ~conn with
      | Some (key, _) -> (conn, key) :: acc
      | None -> acc)
    [] !victims

let decide t ~conn ~flow_hash ~dst_port ~bytes =
  if bytes < 0 then invalid_arg "Splice.decide: negative bytes";
  let code = Kernel.Ebpf_jit.exec t.jit ~flow_hash ~dst_port in
  let prog_cycles = Kernel.Ebpf_jit.last_cycles t.jit in
  t.stats.prog_cycles <- t.stats.prog_cycles + prog_cycles;
  if code <> 3 then begin
    t.stats.fallbacks <- t.stats.fallbacks + 1;
    Fallback
  end
  else
    match Kernel.Ebpf_jit.redirected t.jit with
    | None ->
      t.stats.fallbacks <- t.stats.fallbacks + 1;
      Fallback
    | Some e ->
      let hit = e.Kernel.Ebpf_maps.Sockmap.conn in
      let target = e.Kernel.Ebpf_maps.Sockmap.target in
      if hit <> conn && t.strict then begin
        (* Userspace-directed verification: the slot names a different
           connection than the one we are forwarding for, so the entry
           is stale (missed teardown or collision).  Block the redirect
           and serve through the proxy. *)
        t.stats.desync_blocked <- t.stats.desync_blocked + 1;
        t.stats.fallbacks <- t.stats.fallbacks + 1;
        Fallback
      end
      else begin
        let copied = min bytes (Kernel.Ebpf_jit.copy_len t.jit) in
        t.stats.redirects <- t.stats.redirects + 1;
        t.stats.redirected_bytes <- t.stats.redirected_bytes + bytes;
        t.stats.copied_bytes <- t.stats.copied_bytes + copied;
        let cycles =
          Netsim.Copy.splice_cycles ~bytes
          + Netsim.Copy.selective_copy_cycles ~bytes:copied
        in
        t.stats.splice_cycles <- t.stats.splice_cycles + cycles;
        Redirect
          { conn = hit; worker = target; copied; cycles = prog_cycles + cycles }
      end
