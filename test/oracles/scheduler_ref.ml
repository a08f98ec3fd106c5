(* The original bool-array scheduler cascade (Algo 1), kept as the
   differential oracle of [Hermes.Scheduler]'s bitmap engine and as the
   before-side of the dispatch bench.  It allocates a snapshot and a
   mask per call; both engines must produce bit-identical bitmaps,
   cutoffs and trace events on every input. *)

(* Cycle model: 3 atomic loads per worker for the snapshot, ~4 cycles of
   arithmetic per worker per filter stage, plus fixed overhead. *)
let cycle_cost ~workers ~stages = 60 + (workers * ((3 * 4) + (stages * 4)))

(* The WST as three fresh arrays: times, pending events, connections. *)
let read_all wst =
  let n = Hermes.Wst.workers wst in
  let times = Array.make n 0 and events = Array.make n 0 and conns = Array.make n 0 in
  ignore (Hermes.Wst.read_into wst ~times ~events ~conns);
  (times, events, conns)

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

let schedule ~(config : Hermes.Config.t) ~wst ~now : Hermes.Scheduler.result =
  let times, events, conns = read_all wst in
  let total = Array.length times in
  let mask = Array.make total true in
  let after_time = ref total in
  List.iter
    (fun filter ->
      match filter with
      | Hermes.Config.By_time ->
        filter_time ~threshold:config.avail_threshold ~now ~times mask;
        after_time := count_live mask;
        if Trace.enabled () then
          trace_stage filter ~cutoff:(float_of_int config.avail_threshold) mask
      | Hermes.Config.By_conn ->
        let cutoff =
          filter_count_cutoff ~theta_ratio:config.theta_ratio ~values:conns mask
        in
        if Trace.enabled () then
          trace_stage filter ~cutoff:(Option.value cutoff ~default:0.0) mask
      | Hermes.Config.By_event ->
        let cutoff =
          filter_count_cutoff ~theta_ratio:config.theta_ratio ~values:events mask
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
