type shed_item = { worker : int; shed : int }
type plan = shed_item list

type policy = {
  util_threshold : float;
  shed_fraction : float;
  min_shed : int;
}


let plan ~policy ~utilization ~conn_counts =
  if Array.length utilization <> Array.length conn_counts then
    invalid_arg "Degrade.plan: array length mismatch";
  let out = ref [] in
  Array.iteri
    (fun w util ->
      if util >= policy.util_threshold && conn_counts.(w) > 0 then begin
        let by_fraction =
          int_of_float (Float.round (policy.shed_fraction *. float_of_int conn_counts.(w)))
        in
        let shed = min conn_counts.(w) (max policy.min_shed by_fraction) in
        out := { worker = w; shed } :: !out
      end)
    utilization;
  List.rev !out
