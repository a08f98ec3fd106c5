type t = {
  name : string;
  cps : float;
  requests_per_conn : Engine.Dist.t;
  request_gap : Engine.Dist.t;
  request_size : Engine.Dist.t;
  processing_time : Engine.Dist.t;
  op_mix : (float * Lb.Request.op) list;
  tenant_skew : float;
}

let scale_rate t k =
  if k <= 0.0 then invalid_arg "Profile.scale_rate: factor must be positive";
  { t with cps = t.cps *. k; name = Printf.sprintf "%s x%.1f" t.name k }

let op_picker t rng =
  let weights = Array.of_list (List.map fst t.op_mix) in
  let ops = Array.of_list (List.map snd t.op_mix) in
  fun () -> ops.(Engine.Dist.categorical weights rng)

let tenant_picker t ~tenants rng =
  if t.tenant_skew <= 0.0 then fun () -> Engine.Rng.int rng tenants
  else begin
    let z = Engine.Dist.Zipf.create ~n:tenants ~s:t.tenant_skew in
    fun () -> Engine.Dist.Zipf.sample z rng
  end
