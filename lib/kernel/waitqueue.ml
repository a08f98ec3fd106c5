type mode = Lifo_exclusive | Roundrobin_exclusive | Wake_all | Fifo_exclusive

(* Waiters live on an intrusive doubly-linked ring with a sentinel:
   O(1) register, unregister and rotate-to-tail (the old list-based
   [rest @ [w]] rotation was O(n) per wake, quadratic across a
   round-robin storm).  [head.next] is the most recent registration —
   the LIFO end, mirroring __add_wait_queue — and [head.prev] the
   oldest. *)
type waiter = {
  id : int;
  try_wake : unit -> bool;
  mutable prev : waiter;
  mutable next : waiter;
  mutable queued : bool; (* logically registered *)
  mutable reg_gen : int; (* wake generation at registration *)
}

type t = {
  queue_mode : mode;
  head : waiter; (* sentinel *)
  by_id : (int, waiter) Hashtbl.t;
  mutable gen : int; (* bumped at each wake; tags snapshots *)
  mutable walk_depth : int; (* > 0 while a wake traversal runs *)
  mutable deferred : waiter list; (* unlinks postponed to walk end *)
  mutable steps : int;
  mutable woken : int;
}

let create queue_mode =
  let rec head =
    {
      id = min_int;
      try_wake = (fun () -> false);
      prev = head;
      next = head;
      queued = false;
      reg_gen = 0;
    }
  in
  {
    queue_mode;
    head;
    by_id = Hashtbl.create 16;
    gen = 0;
    walk_depth = 0;
    deferred = [];
    steps = 0;
    woken = 0;
  }

let link_after a w =
  w.prev <- a;
  w.next <- a.next;
  a.next.prev <- w;
  a.next <- w

let unlink w =
  w.prev.next <- w.next;
  w.next.prev <- w.prev;
  w.prev <- w;
  w.next <- w

let register t ~id ~try_wake =
  if Hashtbl.mem t.by_id id then
    invalid_arg "Waitqueue.register: id already registered";
  let w =
    { id; try_wake; prev = t.head; next = t.head; queued = true; reg_gen = t.gen }
  in
  link_after t.head w;
  Hashtbl.replace t.by_id id w

let unregister t ~id =
  match Hashtbl.find_opt t.by_id id with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.by_id id;
    w.queued <- false;
    (* Mid-wake the node must stay physically linked so the active
       traversal's cursor remains valid; it is skipped (not [queued])
       and unlinked once the walk completes. *)
    if t.walk_depth > 0 then t.deferred <- w :: t.deferred else unlink w

let order t =
  let rec go acc w =
    if w == t.head then List.rev acc
    else go (if w.queued then w.id :: acc else acc) w.next
  in
  go [] t.head.next

let trace_policy = function
  | Lifo_exclusive -> Trace.Lifo
  | Roundrobin_exclusive -> Trace.Rr
  | Wake_all -> Trace.All
  | Fifo_exclusive -> Trace.Fifo

(* Snapshot semantics: one wake traversal visits exactly the waiters
   registered when it started — a callback that registers a waiter
   mid-walk (its [reg_gen] equals the walk's generation) does not get
   it visited this round, and one that unregisters a waiter mid-walk
   (its [queued] flag drops) gets it skipped.  The cursor itself is
   mutation-safe because the successor is captured before each
   callback runs and unlinks are deferred until the walk ends. *)
let wake t =
  let steps_before = t.steps in
  t.gen <- t.gen + 1;
  t.walk_depth <- t.walk_depth + 1;
  let gen = t.gen in
  let snapshot = if Trace.enabled () then order t else [] in
  let woken_ids = ref [] in
  let visit w = w.queued && w.reg_gen <> gen in
  let woken =
    match t.queue_mode with
    | Wake_all ->
      let n = ref 0 in
      let rec go w =
        if w != t.head then begin
          let nxt = w.next in
          if visit w then begin
            t.steps <- t.steps + 1;
            if w.try_wake () then begin
              woken_ids := w.id :: !woken_ids;
              incr n
            end
          end;
          go nxt
        end
      in
      go t.head.next;
      !n
    | Lifo_exclusive | Roundrobin_exclusive | Fifo_exclusive ->
      (* FIFO walks from the oldest registration, i.e. backwards from
         the tail; the exclusive walk stops at the first waiter that
         accepts. *)
      let fwd = t.queue_mode <> Fifo_exclusive in
      let rec go w =
        if w == t.head then 0
        else begin
          let nxt = if fwd then w.next else w.prev in
          if visit w then begin
            t.steps <- t.steps + 1;
            if w.try_wake () then begin
              woken_ids := [ w.id ];
              if t.queue_mode = Roundrobin_exclusive && w.queued then begin
                (* O(1) rotation: the woken waiter goes to the tail so
                   the next wake starts beyond it. *)
                unlink w;
                link_after t.head.prev w
              end;
              1
            end
            else go nxt
          end
          else go nxt
        end
      in
      go (if fwd then t.head.next else t.head.prev)
  in
  t.walk_depth <- t.walk_depth - 1;
  if t.walk_depth = 0 && t.deferred <> [] then begin
    List.iter unlink t.deferred;
    t.deferred <- []
  end;
  t.woken <- t.woken + woken;
  if Trace.enabled () then
    Trace.emit
      (Trace.Wq_wake
         {
           policy = trace_policy t.queue_mode;
           queue = snapshot;
           woken = List.rev !woken_ids;
           steps = t.steps - steps_before;
         });
  woken

let traversal_steps t = t.steps
let wakeups t = t.woken
