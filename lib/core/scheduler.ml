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
(* Bool-array cascade primitives.  These remain the unit-testable /
   ablation-facing form of the two filters, and power [Ref] below.    *)
(* ------------------------------------------------------------------ *)

let filter_time ~threshold ~now ~times mask =
  Array.iteri
    (fun i alive ->
      if alive && Engine.Sim_time.sub now times.(i) >= threshold then
        mask.(i) <- false)
    mask

(* As [filter_count], but returns the cutoff it applied (None when no
   worker was live) so the trace can expose the effective avg + θ. *)
let filter_count_cutoff ~theta_ratio ~values mask =
  let sum = ref 0 and live = ref 0 in
  Array.iteri
    (fun i alive ->
      if alive then begin
        sum := !sum + values.(i);
        incr live
      end)
    mask;
  if !live > 0 then begin
    let avg = float_of_int !sum /. float_of_int !live in
    (* theta scales with the average (Fig. 15's theta/Avg knob) but
       never collapses below one unit of slack, so an idle system
       (all counters zero) still passes everyone instead of
       degenerating to the hash fallback. *)
    let theta = Float.max 1.0 (theta_ratio *. avg) in
    let cutoff = avg +. theta in
    Array.iteri
      (fun i alive -> if alive && float_of_int values.(i) >= cutoff then mask.(i) <- false)
      mask;
    Some cutoff
  end
  else None

let filter_count ~theta_ratio ~values mask =
  ignore (filter_count_cutoff ~theta_ratio ~values mask)

let count_live mask =
  Array.fold_left (fun acc alive -> if alive then acc + 1 else acc) 0 mask

let mask_bits mask =
  let bm = ref 0L in
  Array.iteri (fun i alive -> if alive then bm := Kernel.Bitops.set_bit !bm i) mask;
  !bm

let trace_stage stage ~cutoff mask =
  Trace.emit
    (Trace.Sched_filter
       { stage; cutoff; survivors = mask_bits mask; live = count_live mask })

module Ref = struct
  let schedule ~(config : Config.t) ~wst ~now =
    let snapshot = Wst.read_all wst in
    let total = Array.length snapshot.times in
    let mask = Array.make total true in
    let after_time = ref total in
    List.iter
      (fun filter ->
        match filter with
        | Config.By_time ->
          filter_time ~threshold:config.avail_threshold ~now ~times:snapshot.times mask;
          after_time := count_live mask;
          if Trace.enabled () then
            trace_stage filter ~cutoff:(float_of_int config.avail_threshold) mask
        | Config.By_conn ->
          let cutoff =
            filter_count_cutoff ~theta_ratio:config.theta_ratio ~values:snapshot.conns
              mask
          in
          if Trace.enabled () then
            trace_stage filter ~cutoff:(Option.value cutoff ~default:0.0) mask
        | Config.By_event ->
          let cutoff =
            filter_count_cutoff ~theta_ratio:config.theta_ratio ~values:snapshot.events
              mask
          in
          if Trace.enabled () then
            trace_stage filter ~cutoff:(Option.value cutoff ~default:0.0) mask)
      config.filter_order;
    let bitmap = mask_bits mask in
    let passed = count_live mask in
    if Trace.enabled () then
      Trace.emit
        (Trace.Sched_result { bitmap; passed; total; after_time = !after_time });
    {
      bitmap;
      passed;
      total;
      after_time = !after_time;
      cycles = cycle_cost ~workers:total ~stages:(List.length config.filter_order);
    }
end

(* ------------------------------------------------------------------ *)
(* Bitmap-native engine.

   The per-event-loop path (§5.3.2) cannot afford Ref's per-invocation
   garbage: three snapshot arrays, a bool mask, closures and refs at
   every stage.  This engine keeps the survivor mask as two native-int
   halves of the 64-bit dispatch bitmap (OCaml ints are 63-bit, so bit
   63 does not fit one immediate; an [int64] field would box on every
   store) inside a caller-owned [scratch], reads the WST through
   [Wst.read_into] into scratch-owned buffers, and walks the cascade
   with top-level recursion — no closures, no refs, no floats stored.
   A trace-disabled [run] therefore allocates zero minor-heap words;
   the [int64] bitmap is materialised only at observation points
   (tracing, [bitmap], [result]).

   Equivalence with [Ref] is structural: identical integer sums,
   identical float cutoff arithmetic (see the [Float.max] note below),
   identical per-worker comparisons — so identical bitmaps and
   identical trace events, which the qcheck differential suite and the
   golden traces both pin. *)
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
  (* [if p > 1.0 then p else 1.0] is bit-identical to Ref's
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

let schedule ~config ~wst ~now =
  let s = make_scratch () in
  run s ~config ~wst ~now;
  result s
