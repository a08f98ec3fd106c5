(* The pre-wheel binary-heap engine, kept as the reference baseline
   for the differential tests and the scheduler benchmarks.  See
   ref_heap.mli for why the leaky [cancel] is intentional. *)

type event = {
  time : Engine.Sim_time.t;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
}

type handle = event

(* Array-based binary min-heap ordered by (time, seq). *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : Engine.Sim_time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable fired : int;
}

let dummy = { time = 0; seq = -1; action = (fun () -> ()); cancelled = true }

let create () =
  { heap = Array.make 256 dummy; size = 0; clock = 0; seq = 0; stopping = false; fired = 0 }

let now t = t.clock

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let push t ev =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(!i) in
    t.heap.(!i) <- t.heap.(parent);
    t.heap.(parent) <- tmp;
    i := parent
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- dummy;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.heap.(!i) in
        t.heap.(!i) <- t.heap.(!smallest);
        t.heap.(!smallest) <- tmp;
        i := !smallest
      end
    done;
    Some top
  end

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: at=%d is before now=%d" at t.clock);
  let ev = { time = at; seq = t.seq; action; cancelled = false } in
  t.seq <- t.seq + 1;
  push t ev;
  ev

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(Engine.Sim_time.add t.clock delay) action

let cancel _t ev = ev.cancelled <- true
let is_pending _t ev = not ev.cancelled

let pending_count t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if not t.heap.(i).cancelled then incr n
  done;
  !n

let step t =
  let rec next () =
    match pop t with
    | None -> false
    | Some ev when ev.cancelled -> next ()
    | Some ev ->
      t.clock <- ev.time;
      ev.cancelled <- true;
      t.fired <- t.fired + 1;
      ev.action ();
      true
  in
  next ()

let run t =
  t.stopping <- false;
  while (not t.stopping) && step t do
    ()
  done

(* Skim cancelled tombstones off the top so the reported time is that
   of a live event — without this, run_until could fire past [limit]
   when dead entries headed the heap. *)
let rec peek_time t =
  if t.size = 0 then None
  else if t.heap.(0).cancelled then begin
    ignore (pop t);
    peek_time t
  end
  else Some t.heap.(0).time

let run_until t ~limit =
  t.stopping <- false;
  let continue = ref true in
  while !continue && not t.stopping do
    match peek_time t with
    | Some time when time <= limit -> if not (step t) then continue := false
    | _ -> continue := false
  done;
  (* After a [stop], events up to [limit] may still be pending: the
     clock must not pass them. *)
  match peek_time t with
  | Some time when time <= limit -> ()
  | _ -> if t.clock < limit then t.clock <- limit

let stop t = t.stopping <- true
let events_fired t = t.fired
