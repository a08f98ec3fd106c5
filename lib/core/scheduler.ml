type result = {
  bitmap : int64;
  passed : int;
  total : int;
  after_time : int;
  cycles : int;
}

(* Cycle model: 3 atomic loads per worker for the snapshot, ~4 cycles of
   arithmetic per worker per filter stage, plus fixed overhead. *)
let cycle_cost ~workers ~stages = 60 + (workers * ((3 * 4) + (stages * 4)))

(* ------------------------------------------------------------------ *)
(* Bitmap-native engine.

   The per-event-loop path (§5.3.2) cannot afford per-invocation
   garbage: snapshot arrays, a bool mask, closures and refs at every
   stage.  This engine keeps the survivor mask as two native-int
   halves of the 64-bit dispatch bitmap (OCaml ints are 63-bit, so bit
   63 does not fit one immediate; an [int64] field would box on every
   store) inside a caller-owned [scratch], reads the WST through
   [Wst.read_into] into scratch-owned buffers, and walks the cascade
   with top-level recursion — no closures, no refs, no floats stored.
   A trace-disabled [run] therefore allocates zero minor-heap words;
   the [int64] bitmap is materialised only at observation points
   (tracing, [bitmap], [result]).

   The retired bool-array cascade survives as the test oracle
   [Oracles.Scheduler_ref]: identical integer sums, identical float
   cutoff arithmetic (see the [Float.max] note below), identical
   per-worker comparisons — so identical bitmaps and identical trace
   events, which the qcheck differential suite and the golden traces
   both pin. *)
(* ------------------------------------------------------------------ *)

type scratch = {
  times : Engine.Sim_time.t array;
  events : int array;
  conns : int array;
  mutable lo : int;  (** survivor-mask bits 0..31 *)
  mutable hi : int;  (** survivor-mask bits 32..63 *)
  mutable n : int;
  mutable stages : int;
  mutable at : int;  (** survivors of FilterTime *)
  mutable sum : int;  (** FilterCount scratch: Σ value over live *)
  mutable live : int;  (** FilterCount scratch: live count *)
}

let make_scratch () =
  {
    times = Array.make Wst.max_workers 0;
    events = Array.make Wst.max_workers 0;
    conns = Array.make Wst.max_workers 0;
    lo = 0;
    hi = 0;
    n = 0;
    stages = 0;
    at = 0;
    sum = 0;
    live = 0;
  }

let live_of s = Kernel.Bitops.popcount32 s.lo + Kernel.Bitops.popcount32 s.hi

let bitmap_of s =
  Int64.logor (Int64.of_int s.lo) (Int64.shift_left (Int64.of_int s.hi) 32)

let filter_time_into s ~threshold ~now =
  let nlo = if s.n < 32 then s.n else 32 in
  for i = 0 to nlo - 1 do
    if
      s.lo land (1 lsl i) <> 0
      && now - Array.unsafe_get s.times i >= threshold
    then s.lo <- s.lo land lnot (1 lsl i)
  done;
  for i = 32 to s.n - 1 do
    if
      s.hi land (1 lsl (i - 32)) <> 0
      && now - Array.unsafe_get s.times i >= threshold
    then s.hi <- s.hi land lnot (1 lsl (i - 32))
  done

let sum_live_into s (values : int array) =
  s.sum <- 0;
  s.live <- 0;
  let nlo = if s.n < 32 then s.n else 32 in
  for i = 0 to nlo - 1 do
    if s.lo land (1 lsl i) <> 0 then begin
      s.sum <- s.sum + Array.unsafe_get values i;
      s.live <- s.live + 1
    end
  done;
  for i = 32 to s.n - 1 do
    if s.hi land (1 lsl (i - 32)) <> 0 then begin
      s.sum <- s.sum + Array.unsafe_get values i;
      s.live <- s.live + 1
    end
  done

(* The cutoff floats live and die in registers: storing one in the
   (mixed-field) scratch would box it, so the trace path recomputes it
   from [s.sum]/[s.live], which [filter_count_into] leaves intact. *)
let cutoff_of s ~theta_ratio =
  let avg = float_of_int s.sum /. float_of_int s.live in
  let p = theta_ratio *. avg in
  (* [if p > 1.0 then p else 1.0] is bit-identical to the oracle's
     [Float.max 1.0 p] for the reachable inputs (finite, >= 0.) —
     written out because calling [Float.max] would box [p]. *)
  let theta = if p > 1.0 then p else 1.0 in
  avg +. theta

let filter_count_into s ~theta_ratio (values : int array) =
  sum_live_into s values;
  if s.live > 0 then begin
    let avg = float_of_int s.sum /. float_of_int s.live in
    let p = theta_ratio *. avg in
    let theta = if p > 1.0 then p else 1.0 in
    let cutoff = avg +. theta in
    let nlo = if s.n < 32 then s.n else 32 in
    for i = 0 to nlo - 1 do
      if
        s.lo land (1 lsl i) <> 0
        && float_of_int (Array.unsafe_get values i) >= cutoff
      then s.lo <- s.lo land lnot (1 lsl i)
    done;
    for i = 32 to s.n - 1 do
      if
        s.hi land (1 lsl (i - 32)) <> 0
        && float_of_int (Array.unsafe_get values i) >= cutoff
      then s.hi <- s.hi land lnot (1 lsl (i - 32))
    done
  end

let trace_count_stage s ~theta_ratio ~stage =
  let cutoff = if s.live > 0 then cutoff_of s ~theta_ratio else 0.0 in
  Trace.emit
    (Trace.Sched_filter
       { stage; cutoff; survivors = bitmap_of s; live = live_of s })

let rec run_stages s ~(config : Config.t) ~now stages =
  match stages with
  | [] -> ()
  | stage :: rest ->
    (match stage with
    | Config.By_time ->
      filter_time_into s ~threshold:config.avail_threshold ~now;
      s.at <- live_of s;
      if Trace.enabled () then
        Trace.emit
          (Trace.Sched_filter
             {
               stage;
               cutoff = float_of_int config.avail_threshold;
               survivors = bitmap_of s;
               live = s.at;
             })
    | Config.By_conn ->
      filter_count_into s ~theta_ratio:config.theta_ratio s.conns;
      if Trace.enabled () then trace_count_stage s ~theta_ratio:config.theta_ratio ~stage
    | Config.By_event ->
      filter_count_into s ~theta_ratio:config.theta_ratio s.events;
      if Trace.enabled () then trace_count_stage s ~theta_ratio:config.theta_ratio ~stage);
    run_stages s ~config ~now rest

let run s ~(config : Config.t) ~wst ~now =
  let n = Wst.read_into wst ~times:s.times ~events:s.events ~conns:s.conns in
  s.n <- n;
  s.stages <- List.length config.filter_order;
  if n <= 32 then begin
    s.lo <- (1 lsl n) - 1;
    s.hi <- 0
  end
  else begin
    s.lo <- (1 lsl 32) - 1;
    s.hi <- (1 lsl (n - 32)) - 1
  end;
  s.at <- n;
  run_stages s ~config ~now config.filter_order;
  if Trace.enabled () then
    Trace.emit
      (Trace.Sched_result
         { bitmap = bitmap_of s; passed = live_of s; total = n; after_time = s.at })

let passed s = live_of s
let after_time s = s.at

let result s =
  {
    bitmap = bitmap_of s;
    passed = live_of s;
    total = s.n;
    after_time = s.at;
    cycles = cycle_cost ~workers:s.n ~stages:s.stages;
  }
