type t = {
  vms : int;
  size : int;
  rng : Engine.Rng.t;
  shards : (int, int array) Hashtbl.t;
}

let create ~vms ~shard_size ~rng =
  if shard_size <= 0 || shard_size > vms then
    invalid_arg "Shuffle_shard.create: need 0 < shard_size <= vms";
  { vms; size = shard_size; rng; shards = Hashtbl.create 64 }

let shard_size t = t.size

let draw_shard t =
  let all = Array.init t.vms (fun i -> i) in
  Engine.Rng.shuffle t.rng all;
  let shard = Array.sub all 0 t.size in
  Array.sort compare shard;
  shard

let shard_of t ~tenant =
  match Hashtbl.find_opt t.shards tenant with
  | Some s -> s
  | None ->
    let s = draw_shard t in
    Hashtbl.replace t.shards tenant s;
    s

let overlap t a b =
  let sa = shard_of t ~tenant:a and sb = shard_of t ~tenant:b in
  let set = Hashtbl.create 16 in
  Array.iter (fun vm -> Hashtbl.replace set vm ()) sa;
  Array.fold_left (fun acc vm -> if Hashtbl.mem set vm then acc + 1 else acc) 0 sb

let blast_radius t ~tenant =
  float_of_int (Array.length (shard_of t ~tenant)) /. float_of_int t.vms

let expected_full_overlap_fraction ~vms ~shard_size ~trials ~rng =
  if trials <= 0 then invalid_arg "expected_full_overlap_fraction: trials > 0";
  let t = create ~vms ~shard_size ~rng in
  let full = ref 0 in
  for i = 0 to trials - 1 do
    let a = draw_shard t and b = draw_shard t in
    ignore i;
    if a = b then incr full
  done;
  float_of_int !full /. float_of_int trials

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
