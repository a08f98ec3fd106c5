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
   store) inside a caller-owned [scratch], reads the WST's columns in
   place (everything runs on one domain, so nothing writes the table
   during a pass), and walks the cascade with top-level recursion — no
   closures, no refs, no floats stored.  Each stage builds its survivor
   mask without data-dependent branches: the compare's [Bool.to_int],
   shifted into place.  A trace-disabled [run] therefore allocates zero
   minor-heap words; the [int64] bitmap is materialised only at
   observation points (tracing, [bitmap], [result]).

   The retired bool-array cascade survives as the test oracle
   [Oracles.Scheduler_ref]: identical integer sums, identical float
   cutoff arithmetic (see the [Float.max] note below), identical
   per-worker decisions (see the integer-ceiling note) — so identical
   bitmaps and identical trace events, which the qcheck differential
   suite and the golden traces both pin. *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable lo : int;  (** survivor-mask bits 0..31 *)
  mutable hi : int;  (** survivor-mask bits 32..63 *)
  mutable n : int;
  mutable stages : int;
  mutable at : int;  (** survivors of FilterTime *)
  mutable sum : int;  (** FilterCount scratch: Σ value over live *)
  mutable live : int;  (** FilterCount scratch: live count *)
}

let make_scratch () = { lo = 0; hi = 0; n = 0; stages = 0; at = 0; sum = 0; live = 0 }

let live_of s = Kernel.Bitops.popcount32 s.lo + Kernel.Bitops.popcount32 s.hi

let bitmap_of s =
  Int64.logor (Int64.of_int s.lo) (Int64.shift_left (Int64.of_int s.hi) 32)

let filter_time s (times : Engine.Sim_time.t array) ~threshold ~now =
  let nlo = if s.n < 32 then s.n else 32 in
  let keep = ref 0 in
  for i = 0 to nlo - 1 do
    keep := !keep lor (Bool.to_int (now - Array.unsafe_get times i < threshold) lsl i)
  done;
  s.lo <- s.lo land !keep;
  let keep = ref 0 in
  for i = 32 to s.n - 1 do
    keep :=
      !keep lor (Bool.to_int (now - Array.unsafe_get times i < threshold) lsl (i - 32))
  done;
  s.hi <- s.hi land !keep

(* Σ value over live workers: each value masked by its survivor bit. *)
let sum_live s (values : int array) =
  let nlo = if s.n < 32 then s.n else 32 in
  let sum = ref 0 in
  for i = 0 to nlo - 1 do
    sum := !sum + (Array.unsafe_get values i land -((s.lo lsr i) land 1))
  done;
  for i = 32 to s.n - 1 do
    sum := !sum + (Array.unsafe_get values i land -((s.hi lsr (i - 32)) land 1))
  done;
  s.sum <- !sum;
  s.live <- live_of s

(* The cutoff floats live and die in registers: storing one in the
   (mixed-field) scratch would box it, so the trace path recomputes it
   from [s.sum]/[s.live], which [filter_count] leaves intact. *)
let[@inline] cutoff_of s ~theta_ratio =
  let avg = float_of_int s.sum /. float_of_int s.live in
  let p = theta_ratio *. avg in
  (* [if p > 1.0 then p else 1.0] is bit-identical to the oracle's
     [Float.max 1.0 p] for the reachable inputs (finite, >= 0.) —
     written out because calling [Float.max] would box [p]. *)
  let theta = if p > 1.0 then p else 1.0 in
  avg +. theta

let filter_count s ~theta_ratio (values : int array) =
  sum_live s values;
  if s.live > 0 then begin
    let cutoff = cutoff_of s ~theta_ratio in
    (* The oracle drops a worker when [float_of_int v >= cutoff]; for an
       int [v] that holds exactly when [v >= ceil cutoff].  The ceiling
       is taken once, without [Float.ceil] (a C call): the cutoff is
       at least 1, so truncation is the floor.  A cutoff past the int
       range keeps everyone, as the float compare does. *)
    let ceil =
      if cutoff < 0x1p62 then
        let k = int_of_float cutoff in
        if float_of_int k < cutoff then k + 1 else k
      else max_int
    in
    let nlo = if s.n < 32 then s.n else 32 in
    let keep = ref 0 in
    for i = 0 to nlo - 1 do
      keep := !keep lor (Bool.to_int (Array.unsafe_get values i < ceil) lsl i)
    done;
    s.lo <- s.lo land !keep;
    let keep = ref 0 in
    for i = 32 to s.n - 1 do
      keep := !keep lor (Bool.to_int (Array.unsafe_get values i < ceil) lsl (i - 32))
    done;
    s.hi <- s.hi land !keep
  end

let trace_count_stage s ~theta_ratio ~stage =
  let cutoff = if s.live > 0 then cutoff_of s ~theta_ratio else 0.0 in
  Trace.emit
    (Trace.Sched_filter
       { stage; cutoff; survivors = bitmap_of s; live = live_of s })

let rec run_stages s ~(config : Config.t) ~wst ~now stages =
  match stages with
  | [] -> ()
  | stage :: rest ->
    (match stage with
    | Config.By_time ->
      filter_time s (Wst.times wst) ~threshold:config.avail_threshold ~now;
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
      filter_count s ~theta_ratio:config.theta_ratio (Wst.conns wst);
      if Trace.enabled () then trace_count_stage s ~theta_ratio:config.theta_ratio ~stage
    | Config.By_event ->
      filter_count s ~theta_ratio:config.theta_ratio (Wst.events wst);
      if Trace.enabled () then trace_count_stage s ~theta_ratio:config.theta_ratio ~stage);
    run_stages s ~config ~wst ~now rest

let run s ~(config : Config.t) ~wst ~now =
  let n = Wst.workers wst in
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
  run_stages s ~config ~wst ~now config.filter_order;
  if Trace.enabled () then
    Trace.emit
      (Trace.Sched_result
         { bitmap = bitmap_of s; passed = live_of s; total = n; after_time = s.at })

let passed s = live_of s
let after_time s = s.at
let total s = s.n
let bitmap s = bitmap_of s
let cycles s = cycle_cost ~workers:s.n ~stages:s.stages

let result s =
  {
    bitmap = bitmap_of s;
    passed = live_of s;
    total = s.n;
    after_time = s.at;
    cycles = cycles s;
  }
