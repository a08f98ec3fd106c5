module Sim_time = Engine.Sim_time

type config = {
  staleness_window : Sim_time.t;
  selection_slack : Sim_time.t;
  fallback_bound : int;
  expect_exclusion : bool;
  expect_fallback : bool;
}

let default_config =
  {
    staleness_window = Hermes.Config.default.Hermes.Config.avail_threshold;
    selection_slack = Sim_time.ms 10;
    fallback_bound = 1;
    expect_exclusion = true;
    expect_fallback = true;
  }

type exclusion = {
  fault : Trace.fault;
  worker : int;
  injected_at : Sim_time.t;
  deadline : Sim_time.t;
  mutable last_before_deadline : Sim_time.t option;
  mutable late_dispatches : int;
  mutable late_hash_fallbacks : int;
  mutable cleared_at : Sim_time.t option;
}

type fallback = {
  failed_at : Sim_time.t;
  mutable prog_before_engage : int;
  mutable engaged : bool;
  mutable hash_selects : int;
  mutable restored_at : Sim_time.t option;
  mutable selects_after_restore : int;
  mutable prog_after_restore : int;
}

type t = {
  config : config;
  open_conns : (int, int) Hashtbl.t;  (* conn id -> accepting worker *)
  mutable accepted : int;
  mutable completed_closes : int;
  active_excl : (int, exclusion) Hashtbl.t;  (* worker -> current window *)
  mutable all_excl : exclusion list;  (* reverse injection order *)
  mutable fallbacks : fallback list;  (* reverse injection order *)
  (* Splice invariant: once a [Splice_teardown] names a connection, no
     later [Splice_redirect] may — conn ids are never reused, so the
     set only grows. *)
  torn_down : (int, Sim_time.t) Hashtbl.t;  (* conn id -> teardown time *)
  mutable splice_redirects : int;
  mutable stale_splice_redirects : int;
  mutable first_stale_redirect : string option;
}

let create config =
  {
    config;
    open_conns = Hashtbl.create 1024;
    accepted = 0;
    completed_closes = 0;
    active_excl = Hashtbl.create 8;
    all_excl = [];
    fallbacks = [];
    torn_down = Hashtbl.create 256;
    splice_redirects = 0;
    stale_splice_redirects = 0;
    first_stale_redirect = None;
  }

let current_fallback t =
  match t.fallbacks with
  | fb :: _ -> Some fb
  | [] -> None

(* A kernel selection landed on [worker] at [time]: check it against
   any open exclusion window.  Only program-directed ([Prog]) picks
   past the deadline violate the invariant — when the bitmap falls
   below [min_selected] (or the program is detached) Algo 2 falls back
   to hashing over the whole group by design, and that floor may
   legitimately hit the faulted worker; those are tallied apart. *)
let saw_dispatch t ~worker ~time ~via =
  match Hashtbl.find_opt t.active_excl worker with
  | None -> ()
  | Some excl ->
    if time <= excl.deadline then excl.last_before_deadline <- Some time
    else (
      match via with
      | Trace.Prog -> excl.late_dispatches <- excl.late_dispatches + 1
      | Trace.Hash ->
        excl.late_hash_fallbacks <- excl.late_hash_fallbacks + 1)

let observe t (r : Trace.record) =
  match r.event with
  | Trace.Fault_inject { fault; worker; arg = _ } ->
    if Plan.stops_availability fault && worker >= 0 then begin
      let excl =
        {
          fault;
          worker;
          injected_at = r.time;
          deadline =
            r.time + t.config.staleness_window + t.config.selection_slack;
          last_before_deadline = None;
          late_dispatches = 0;
          late_hash_fallbacks = 0;
          cleared_at = None;
        }
      in
      Hashtbl.replace t.active_excl worker excl;
      t.all_excl <- excl :: t.all_excl
    end;
    if fault = Trace.Ebpf_fail then
      t.fallbacks <-
        {
          failed_at = r.time;
          prog_before_engage = 0;
          engaged = false;
          hash_selects = 0;
          restored_at = None;
          selects_after_restore = 0;
          prog_after_restore = 0;
        }
        :: t.fallbacks
  | Trace.Fault_clear { fault; worker } ->
    (if Plan.stops_availability fault then
       match Hashtbl.find_opt t.active_excl worker with
       | Some excl when excl.fault = fault ->
         excl.cleared_at <- Some r.time;
         Hashtbl.remove t.active_excl worker
       | _ -> ());
    if fault = Trace.Ebpf_fail then
      Option.iter
        (fun fb -> if fb.restored_at = None then fb.restored_at <- Some r.time)
        (current_fallback t)
  | Trace.Rp_select { via; slot; _ } -> (
    if t.config.expect_exclusion then
      saw_dispatch t ~worker:slot ~time:r.time ~via;
    match current_fallback t with
    | None -> ()
    | Some fb -> (
      match fb.restored_at with
      | None -> (
        match via with
        | Trace.Hash ->
          fb.engaged <- true;
          fb.hash_selects <- fb.hash_selects + 1
        | Trace.Prog ->
          if not fb.engaged then
            fb.prog_before_engage <- fb.prog_before_engage + 1)
      | Some _ ->
        fb.selects_after_restore <- fb.selects_after_restore + 1;
        if via = Trace.Prog then
          fb.prog_after_restore <- fb.prog_after_restore + 1))
  | Trace.Accept { worker; conn } ->
    (* The selection, not the accept, is the dispatch decision: every
       accept was preceded by its SYN's [Rp_select], already checked. *)
    t.accepted <- t.accepted + 1;
    Hashtbl.replace t.open_conns conn worker
  | Trace.Close { conn; _ } ->
    if Hashtbl.mem t.open_conns conn then begin
      Hashtbl.remove t.open_conns conn;
      t.completed_closes <- t.completed_closes + 1
    end
  | Trace.Splice_teardown { conn; _ } ->
    if not (Hashtbl.mem t.torn_down conn) then
      Hashtbl.replace t.torn_down conn r.time
  | Trace.Splice_redirect { conn; worker; bytes; _ } ->
    t.splice_redirects <- t.splice_redirects + 1;
    (match Hashtbl.find_opt t.torn_down conn with
    | None -> ()
    | Some torn_at ->
      t.stale_splice_redirects <- t.stale_splice_redirects + 1;
      if t.first_stale_redirect = None then
        t.first_stale_redirect <-
          Some
            (Printf.sprintf
               "%d bytes to conn %d on worker %d at %s (torn down at %s)"
               bytes conn worker (Sim_time.to_string r.time)
               (Sim_time.to_string torn_at)))
  | _ -> ()

(* An exclusion window is enforceable only if the fault outlived the
   deadline: a 50 ms hang under a 100 ms staleness window never obliges
   the scheduler to react. *)
let enforceable excl =
  match excl.cleared_at with
  | None -> true
  | Some cleared -> cleared > excl.deadline

type report = {
  accepted : int;
  completed_closes : int;
  lost : int;
  exclusions : exclusion list;
  fallbacks : fallback list;
  splice_redirects : int;
  stale_splice_redirects : int;
  violations : string list;
}

let finalize t ~device =
  let still_owned = Hashtbl.create 64 in
  Array.iter
    (fun w ->
      List.iter
        (fun (c : Lb.Conn.t) -> Hashtbl.replace still_owned c.Lb.Conn.id ())
        (Lb.Worker.conns w))
    (Lb.Device.workers device);
  let lost =
    Hashtbl.fold
      (fun conn _w acc -> if Hashtbl.mem still_owned conn then acc else acc + 1)
      t.open_conns 0
  in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if lost > 0 then
    add "%d accepted connections vanished (neither closed nor owned)" lost;
  let exclusions = List.rev t.all_excl in
  List.iter
    (fun e ->
      if enforceable e && e.late_dispatches > 0 then
        add "worker %d got %d dispatches past the staleness deadline (%s at %s)"
          e.worker e.late_dispatches (Trace.fault_name e.fault)
          (Sim_time.to_string e.injected_at))
    exclusions;
  let fallbacks = List.rev t.fallbacks in
  if t.config.expect_fallback then
  List.iter
    (fun fb ->
      if fb.prog_before_engage > t.config.fallback_bound then
        add "hash fallback engaged only after %d program selections (bound %d)"
          fb.prog_before_engage t.config.fallback_bound;
      if
        fb.restored_at <> None
        && fb.selects_after_restore > 0
        && fb.prog_after_restore = 0
      then
        add "bitmap dispatch never resumed after ebpf restore at %s"
          (Sim_time.to_string (Option.get fb.restored_at)))
    fallbacks;
  if t.stale_splice_redirects > 0 then
    add "%d splice redirects hit torn-down connections (first: %s)"
      t.stale_splice_redirects
      (Option.value t.first_stale_redirect ~default:"?");
  {
    accepted = t.accepted;
    completed_closes = t.completed_closes;
    lost;
    exclusions;
    fallbacks;
    splice_redirects = t.splice_redirects;
    stale_splice_redirects = t.stale_splice_redirects;
    violations = List.rev !violations;
  }

let pp_report ppf r =
  Format.fprintf ppf "accepted %d, closed %d, lost %d@," r.accepted
    r.completed_closes r.lost;
  if r.splice_redirects > 0 then
    Format.fprintf ppf "splice: %d redirects, %d stale@," r.splice_redirects
      r.stale_splice_redirects;
  List.iter
    (fun e ->
      let converged =
        match e.last_before_deadline with
        | Some last -> Sim_time.to_string (last - e.injected_at)
        | None -> "none seen"
      in
      Format.fprintf ppf
        "%s worker=%d at %s: last dispatch within %s, %d late%s%s@,"
        (Trace.fault_name e.fault)
        e.worker
        (Sim_time.to_string e.injected_at)
        converged e.late_dispatches
        (if e.late_hash_fallbacks > 0 then
           Printf.sprintf " (+%d hash-floor picks)" e.late_hash_fallbacks
         else "")
        (if enforceable e then "" else " (window shorter than threshold)"))
    r.exclusions;
  List.iter
    (fun fb ->
      Format.fprintf ppf
        "%s at %s: %d prog selects before fallback, %d hash selects, \
         recovery %s@,"
        (Trace.fault_name Trace.Ebpf_fail)
        (Sim_time.to_string fb.failed_at)
        fb.prog_before_engage fb.hash_selects
        (match fb.restored_at with
        | None -> "never restored"
        | Some _ when fb.selects_after_restore = 0 -> "untested (no traffic)"
        | Some _ when fb.prog_after_restore > 0 ->
          Printf.sprintf "ok (%d/%d prog)" fb.prog_after_restore
            fb.selects_after_restore
        | Some _ -> "no prog selections after restore"))
    r.fallbacks;
  match r.violations with
  | [] -> Format.fprintf ppf "all invariants held@,"
  | vs ->
    List.iter (fun v -> Format.fprintf ppf "VIOLATION: %s@," v) vs
