type t = {
  avail : int Atomic.t array;
  busy_cells : int Atomic.t array;
  conn_cells : int Atomic.t array;
  stalled : bool array;
}

let max_workers = 64

let create ~workers =
  if workers <= 0 || workers > max_workers then
    invalid_arg "Wst.create: workers must be in 1..64";
  {
    avail = Array.init workers (fun _ -> Atomic.make 0);
    busy_cells = Array.init workers (fun _ -> Atomic.make 0);
    conn_cells = Array.init workers (fun _ -> Atomic.make 0);
    stalled = Array.make workers false;
  }

let workers t = Array.length t.avail

let set_stall t w stalled =
  if w < 0 || w >= Array.length t.stalled then
    invalid_arg "Wst.set_stall: worker out of range";
  t.stalled.(w) <- stalled

let set_avail t w ~now =
  if not t.stalled.(w) then begin
    Atomic.set t.avail.(w) now;
    if Trace.enabled () then
      Trace.emit (Trace.Wst_write { worker = w; column = Trace.Avail; value = now })
  end

let add_busy t w delta =
  let old = Atomic.fetch_and_add t.busy_cells.(w) delta in
  if Trace.enabled () then
    Trace.emit
      (Trace.Wst_write { worker = w; column = Trace.Busy; value = old + delta })

let add_conn t w delta =
  let old = Atomic.fetch_and_add t.conn_cells.(w) delta in
  if Trace.enabled () then
    Trace.emit
      (Trace.Wst_write { worker = w; column = Trace.Conn; value = old + delta })

let avail_ts t w = Atomic.get t.avail.(w)
let busy t w = Atomic.get t.busy_cells.(w)
let conn t w = Atomic.get t.conn_cells.(w)

type snapshot = {
  times : Engine.Sim_time.t array;
  events : int array;
  conns : int array;
}

let read_all t =
  {
    times = Array.map Atomic.get t.avail;
    events = Array.map Atomic.get t.busy_cells;
    conns = Array.map Atomic.get t.conn_cells;
  }

let read_into t ~times ~events ~conns =
  let n = Array.length t.avail in
  if Array.length times < n || Array.length events < n || Array.length conns < n
  then invalid_arg "Wst.read_into: buffers smaller than the table";
  for w = 0 to n - 1 do
    Array.unsafe_set times w (Atomic.get (Array.unsafe_get t.avail w));
    Array.unsafe_set events w (Atomic.get (Array.unsafe_get t.busy_cells w));
    Array.unsafe_set conns w (Atomic.get (Array.unsafe_get t.conn_cells w))
  done;
  n
