type pool_mode = Per_worker | Shared

type t = {
  mutable servers : int;
  workers : int;
  pool_mode : pool_mode;
  idle_cap : int;
  mutable cursors : int array; (* round-robin position per worker *)
  mutable idle : int array array; (* [pool][server] idle conn count *)
  mutable request_counts : int array;
  mutable handshake_count : int;
}

let pool_count ~mode ~workers = match mode with Per_worker -> workers | Shared -> 1

let create ~servers ~workers ~mode ?(idle_per_server = 2) () =
  if servers <= 0 || workers <= 0 then
    invalid_arg "Backend.create: servers and workers must be positive";
  {
    servers;
    workers;
    pool_mode = mode;
    idle_cap = idle_per_server;
    cursors = Array.make workers 0;
    idle = Array.make_matrix (pool_count ~mode ~workers) servers 0;
    request_counts = Array.make servers 0;
    handshake_count = 0;
  }


let pool_of t worker = match t.pool_mode with Per_worker -> worker | Shared -> 0

let pick t ~worker =
  let server = t.cursors.(worker) mod t.servers in
  t.cursors.(worker) <- (t.cursors.(worker) + 1) mod t.servers;
  server

let forward_to t ~worker ~server =
  t.request_counts.(server) <- t.request_counts.(server) + 1;
  let pool = pool_of t worker in
  if t.idle.(pool).(server) > 0 then
    t.idle.(pool).(server) <- t.idle.(pool).(server) - 1
  else t.handshake_count <- t.handshake_count + 1

let release t ~worker ~server =
  let pool = pool_of t worker in
  if t.idle.(pool).(server) < t.idle_cap then
    t.idle.(pool).(server) <- t.idle.(pool).(server) + 1

let forward_and_release t ~worker =
  let server = pick t ~worker in
  forward_to t ~worker ~server;
  release t ~worker ~server;
  server

let update_server_list t ?servers ~randomize () =
  (match servers with
  | Some n ->
    if n <= 0 then invalid_arg "Backend.update_server_list: servers must be positive";
    t.servers <- n;
    t.request_counts <- Array.make n 0
  | None -> ());
  t.idle <-
    Array.make_matrix (pool_count ~mode:t.pool_mode ~workers:t.workers) t.servers 0;
  t.cursors <-
    Array.init t.workers (fun _ ->
        match randomize with
        | None -> 0
        | Some rng -> Engine.Rng.int rng t.servers)

let requests_per_server t = Array.copy t.request_counts
let handshakes t = t.handshake_count

let reset_counters t =
  Array.fill t.request_counts 0 t.servers 0;
  t.handshake_count <- 0
