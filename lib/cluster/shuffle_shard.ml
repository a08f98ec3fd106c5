type phase = Spread_existing | Scale_up_groups | New_groups

type decision = { phase : phase; vms_added : int }

let plan_scaling ~current_vms ~utilization ~target ~headroom_vms =
  if utilization <= target then None
  else begin
    (* VMs needed so that the load (utilization * current) fits under
       target. *)
    let needed =
      int_of_float (ceil (utilization *. float_of_int current_vms /. target))
    in
    let deficit = needed - current_vms in
    if deficit <= 0 then Some { phase = Spread_existing; vms_added = 0 }
    else if deficit <= headroom_vms then
      Some { phase = Scale_up_groups; vms_added = deficit }
    else Some { phase = New_groups; vms_added = deficit }
  end
