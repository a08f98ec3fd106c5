type t = {
  wst : Wst.t;
  worker_idx : int;
  mutable cycle_acc : int;
}

(* Cost estimates in cycles.  The WST cells are read by every worker's
   scheduler, so the writer pays a contended cache-line transfer on
   most updates, not an uncontended RMW. *)
let avail_cost = 100
let count_cost = 150

let create ~wst ~worker =
  if worker < 0 || worker >= Wst.workers wst then
    invalid_arg "Metrics.create: worker out of range";
  { wst; worker_idx = worker; cycle_acc = 0 }

let avail_update t ~now =
  Wst.set_avail t.wst t.worker_idx ~now;
  t.cycle_acc <- t.cycle_acc + avail_cost

let busy_count t delta =
  Wst.add_busy t.wst t.worker_idx delta;
  t.cycle_acc <- t.cycle_acc + count_cost

let conn_count t delta =
  Wst.add_conn t.wst t.worker_idx delta;
  t.cycle_acc <- t.cycle_acc + count_cost

let cycles t = t.cycle_acc

let reset_accounting t = t.cycle_acc <- 0
