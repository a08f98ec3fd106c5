type select_mode = By_flow_hash | By_dst_port

type group = { g_wst : Wst.t; base : int; size : int }

type t = {
  total_workers : int;
  group_size : int;
  groups : group array;
  sel_mode : select_mode;
  sel_map : Kernel.Ebpf_maps.Array_map.t;
}

let create ~workers ~group_size ~mode =
  if workers < 1 then invalid_arg "Groups.create: workers must be >= 1";
  if group_size < 1 || group_size > 64 then
    invalid_arg "Groups.create: group_size must be in 1..64";
  let count = (workers + group_size - 1) / group_size in
  let groups =
    Array.init count (fun g ->
        let base = g * group_size in
        let size = min group_size (workers - base) in
        { g_wst = Wst.create ~workers:size; base; size })
  in
  {
    total_workers = workers;
    group_size;
    groups;
    sel_mode = mode;
    sel_map = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:count;
  }


let group_of_worker t w =
  if w < 0 || w >= t.total_workers then
    invalid_arg "Groups.group_of_worker: worker out of range";
  (w / t.group_size, w mod t.group_size)

let wst t g = t.groups.(g).g_wst
let m_sel t = t.sel_map

let make_prog t ~m_socket ~min_selected =
  let open Kernel.Ebpf in
  let count = Array.length t.groups in
  let body_of g =
    Dispatch.dispatch_body ~m_sel:t.sel_map ~key:g ~m_socket
      ~base:t.groups.(g).base ~min_selected
  in
  let body =
    if count = 1 then body_of 0
    else begin
      let level1 =
        match t.sel_mode with
        | By_flow_hash -> Reciprocal_scale (Flow_hash, Const (Int64.of_int count))
        | By_dst_port -> Mod (Dst_port, Const (Int64.of_int count))
      in
      (* Unrolled branch chain over group indices; the final group is
         the else-branch, keeping the chain exhaustive. *)
      let rec chain g =
        if g = count - 1 then body_of g
        else If (Eq, Var "g", Const (Int64.of_int g), body_of g, chain (g + 1))
      in
      Let_ret ("g", level1, chain 0)
    end
  in
  { name = "hermes_dispatch_2level"; body }
