(* Conservative-synchronization coordinator: horizon rounds over the
   member shards, each run inline on the calling domain. *)

type t = {
  control : Shard.t;
  shards : (int, Shard.t) Hashtbl.t;
  mutable member_ids : int list; (* ascending *)
  mutable horizon : Sim_time.t;
}

let create ~control =
  { control; shards = Hashtbl.create 16; member_ids = []; horizon = 0 }

let add t shard =
  let id = Shard.id shard in
  if id = Shard.id t.control then
    invalid_arg "Coordinator.add: shard id collides with the control LP";
  if Hashtbl.mem t.shards id then
    invalid_arg (Printf.sprintf "Coordinator.add: duplicate shard id %d" id);
  (* A shard joining mid-run starts at the fleet's horizon, not at 0
     (no-op when the caller already aligned it before populating it). *)
  if Sim.now (Shard.sim shard) < t.horizon then Shard.run_to shard ~limit:t.horizon;
  Hashtbl.replace t.shards id shard;
  t.member_ids <- List.sort compare (id :: t.member_ids)

let remove t id =
  Hashtbl.remove t.shards id;
  t.member_ids <- List.filter (fun i -> i <> id) t.member_ids

let members t = List.map (Hashtbl.find t.shards) t.member_ids
let horizon t = t.horizon

let message_order (a : Shard.message) (b : Shard.message) =
  match compare a.at b.at with
  | 0 -> ( match compare a.src b.src with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

let deliver_sorted t msgs =
  List.iter
    (fun (msg : Shard.message) ->
      let dst =
        if msg.dst = Shard.id t.control then Some t.control
        else Hashtbl.find_opt t.shards msg.dst
      in
      (* A missing destination was removed since the send: drop. *)
      match dst with None -> () | Some shard -> Shard.deliver shard msg)
    (List.sort message_order msgs)

let advance t ~horizon =
  if horizon < t.horizon then
    invalid_arg
      (Printf.sprintf "Coordinator.advance: horizon %d is behind %d" horizon
         t.horizon);
  deliver_sorted t (Shard.drain_outbox t.control);
  List.iter (fun shard -> Shard.run_to shard ~limit:horizon) (members t);
  t.horizon <- horizon;
  deliver_sorted t (List.concat_map Shard.drain_outbox (members t))
